"""Command-line interface: exit codes and output formats."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gamedyn import KINDS, build_belief_graph, build_dynamics, export_dot, parse_game
from gamedyn.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_UNSAFE,
    EXIT_USAGE,
    run_cli,
)

from .conftest import FIXTURES
from .generators import game_doc, random_game, ring_doc
from .golden import ROOT, TRANSCRIPT, run_captured
from .oracles import is_fair_walk, is_label_fair_walk

GDIS = str(FIXTURES / "gdis.json")
FIG2 = str(FIXTURES / "fig2.json")
FIG3 = str(FIXTURES / "fig3.json")
GDIS_SPP = str(FIXTURES / "gdis.spp.json")
SAFE_SPP = str(FIXTURES / "safe.spp.json")
INCOMPLETE_SPP = str(FIXTURES / "incomplete.spp.json")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_termination_check_ok():
    code, out, _ = run("analyze", GDIS, "--kind", "p1", "--check", "termination")
    assert code == EXIT_OK
    assert "terminates: true" in out


def test_fair_termination_reports_cycle():
    code, out, _ = run(
        "analyze", GDIS, "--kind", "pc", "--check", "fair-termination"
    )
    assert code == EXIT_UNSAFE
    assert "fair cycle found" in out
    assert "c1c2" in out and "s1s2" in out


def test_equilibria_json_output():
    code, out, _ = run(
        "--output", "json", "analyze", GDIS, "--kind", "pc", "--check", "equilibria"
    )
    assert code == EXIT_OK
    assert json.loads(out)["equilibria"] == ["c1s2", "s1c2"]


def test_dynamics_dot_output():
    code, out, _ = run("--output", "dot", "dynamics", GDIS, "--kind", "p1")
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert out.count("->") == 4


def test_arena_dot_output(fig2):
    out = export_dot(fig2)
    assert out == "".join(line + "\n" for line in [
        "digraph arena {",
        *(f'  "{v}" [label="{v} (p1)"];' for v in ("v1", "v2", "v3", "v4", "v5")),
        '  "vbot" [shape=doublecircle];',
        *(f'  "{u}" -> "{v}";' for u, v in [
            ("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v4"), ("v3", "v4"),
            ("v3", "vbot"), ("v4", "v5"), ("v4", "vbot"), ("v5", "vbot")]),
        "}",
    ])
    # edges are sorted whatever the document's order, and a label is quoted
    doc = json.loads(FIXTURES.joinpath("fig2.json").read_text())
    doc["edges"] = [e + ['say "hi"'] if e == ["v4", "v5"] else e
                    for e in reversed(doc["edges"])]
    assert export_dot(parse_game(json.dumps(doc))) == out.replace(
        '"v4" -> "v5";', '"v4" -> "v5" [label="say \\"hi\\""];')


def test_spp_safety_exit_codes():
    code, out, _ = run("spp", "safety", GDIS_SPP, "--mode", "both")
    assert code == EXIT_UNSAFE
    assert "UnsafeSDW" in out and "pivots: (v1, v2)" in out

    code, out, _ = run("spp", "safety", SAFE_SPP)
    assert code == EXIT_OK
    assert "SafeNoDW" in out


def test_spp_structural_several_stable_states(tmp_path):
    # DISAGREE with a detour via c, whose preferences are not next-hop only:
    # a and b each prefer the other's direct path, so both are stable
    doc = {
        "origin": "d",
        "nodes": {
            "a": {"paths": [["a", "b", "d"], ["a", "d"], ["a", "b", "c", "d"]]},
            "b": {"paths": [["b", "a", "d"], ["b", "d"], ["b", "c", "d"]]},
            "c": {"paths": [["c", "d"]]},
        },
    }
    path = tmp_path / "disagree.spp.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run("spp", "validate", str(path))
    assert code == EXIT_OK
    assert out == "valid: true\nnext-hop-only preferences: false\n"
    several = "several stable states, so updates cannot always converge to one of them"
    for mode, verdict, method in [
        ("structural", "UnsafeMultiEquilibria", several),
        ("both", "UnsafeMultiEquilibria", several + "; confirmed by model checking"),
        ("exact", "UnsafeModelChecked", "fair oscillation found by model checking"),
    ]:
        code, out, _ = run("spp", "safety", str(path), "--mode", mode)
        assert (code, out) == (EXIT_UNSAFE, f"verdict: {verdict}\nmethod: {method}\n"), mode


def test_spp_structural_unknown(tmp_path):
    # the three-player host has a wheel but converges under best replies:
    # structurally undecided, exit 4
    doc = {
        "origin": "vbot",
        "nodes": {
            "v1": {"paths": [["v1", "v3", "vbot"], ["v1", "v2", "vbot"],
                             ["v1", "vbot"]]},
            "v2": {"paths": [["v2", "v1", "vbot"], ["v2", "vbot"]]},
            "v3": {"paths": [["v3", "vbot"]]},
        },
    }
    path = tmp_path / "host.spp.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run("spp", "safety", str(path))
    assert code == EXIT_UNKNOWN
    assert "UnknownStructural" in out
    code, out, _ = run("spp", "safety", str(path), "--mode", "exact")
    assert code == EXIT_OK


def test_spp_suffix_closure_error():
    code, _, err = run("spp", "safety", INCOMPLETE_SPP)
    assert code == EXIT_ERROR
    assert "--complete-suffixes" in err
    code, _, _ = run("spp", "safety", INCOMPLETE_SPP, "--complete-suffixes")
    assert code in (EXIT_OK, EXIT_UNSAFE, EXIT_UNKNOWN)


def test_minor_command(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(
        [{"edge": ["v4", "vbot"]}, {"vertex": "v4"}, {"edge": ["v1", "v5"]}]
    ))
    code, out, _ = run("minor", FIG2, "--script", str(script))
    assert code == EXIT_OK
    assert "simulate" in out and "true" in out


def test_minor_command_bad_script(tmp_path):
    script = tmp_path / "script.json"
    script.write_text("not json")
    code, _, err = run("minor", FIG2, "--script", str(script))
    assert code == EXIT_ERROR and err.startswith("error:")


def test_minor_builds_no_relation(monkeypatch):
    # the verdict reads only whether every node is simulated
    from gamedyn import relations

    argv = ("minor", GDIS, "--script", str(ROOT / "tests" / "data" / "gdis-script.json"))
    want = run(*argv)

    def refuse(pairs):
        raise AssertionError("a relation was built")

    monkeypatch.setattr(relations, "Relation", refuse)
    assert run(*argv) == want and want == (
        EXIT_OK, "minor: 3 vertices, 3 edges\n"
        "dynamics of the original simulate the minor's (p1): true\n", "")


def test_dominated_command():
    code, out, _ = run(
        "dominated", str(FIXTURES / "fig5.json"), "--edges", "v1,vbot", "v1,v4"
    )
    assert code == EXIT_OK
    assert "true" in out


def test_belief_command():
    code, out, _ = run("belief", GDIS)
    assert "16 nodes" in out
    assert "diamond property: true" in out
    assert "label-fair cycle" in out
    assert code == EXIT_UNSAFE  # two reachable sinks: outcome is ambiguous


def test_belief_command_reports_a_diamond_counterexample(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_doc(random_game(3, max_vertices=4, max_players=2))))
    code, out, _ = run("--output", "json", "belief", str(path))
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["diamond"] is False
    assert record["diamond_counterexample"] == ["v1:v2v2:v1|v1:v0v2:v0", 0, 1]


def test_dis_minor_command():
    code, out, _ = run("dis-minor", FIG3)
    assert code == EXIT_UNSAFE
    assert "deletion script" in out
    code, out, _ = run("dis-minor", FIG2)
    assert code == EXIT_OK
    assert "no disagreement-pattern minor" in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        run("analyze", GDIS, "--kind", "p1")  # missing --check
    assert info.value.code == EXIT_USAGE


def test_missing_file_exits_5():
    code, _, err = run("analyze", "no-such-file.json", "--kind", "p1",
                       "--check", "termination")
    assert code == EXIT_ERROR
    assert err.startswith("error:")


def test_outputs_are_deterministic():
    first = run("--output", "json", "spp", "safety", GDIS_SPP, "--mode", "both")
    second = run("--output", "json", "spp", "safety", GDIS_SPP, "--mode", "both")
    assert first == second


GOLDEN = json.loads(TRANSCRIPT.read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["id"] for e in GOLDEN])
def test_golden_transcript(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = {k: v for k, v in entry.items() if k not in ("id", "argv")}
    assert run_captured(entry["argv"]) == expected


def test_golden_fair_cycles_are_fair():
    """Each fair cycle of the golden transcript, read back through its
    labels, is fair on its graph, and each label-fair cycle steps on every
    label."""
    checked = 0
    for entry in GOLDEN:
        argv = entry["argv"]
        if argv[:2] != ["--output", "json"] or entry["exit"] != EXIT_UNSAFE:
            continue
        record = json.loads(entry["stdout"])
        if "fair-termination" in argv:
            game = parse_game((ROOT / argv[3]).read_text())
            dg = build_dynamics(game, record["kind"])
            node = {dg.label(n): n for n in dg.nodes}
            cycle = [node[name] for name in record["cycle"]]
            assert is_fair_walk(dg.nodes, dg.edges, range(1, game.n_players + 1), cycle)
        elif argv[2] == "belief" and record["label_fair_cycle"]:
            bg = build_belief_graph(parse_game((ROOT / argv[3]).read_text()))
            node = {bg.label(n): n for n in bg.nodes}
            cycle = [node[name] for name in record["label_fair_cycle"]]
            assert is_label_fair_walk(bg.nodes, bg.delta, cycle)
        else:
            continue
        checked += 1
    assert checked == 6


@pytest.mark.parametrize("name", ["gdis", "fig3", "fig4", "fig5"])
def test_one_step_rejects_cyclic_arena(name):
    code, out, err = run("dynamics", str(FIXTURES / f"{name}.json"), "--kind", "1")
    assert (code, out, err) == (EXIT_ERROR, "", "error: cycle through 'v1'\n")


def _subprocess_env(**extra):
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), **extra}


@pytest.mark.parametrize("argv", [
    ["--output", "json", "analyze", "fixtures/gdis.json", "--kind", "pc",
     "--check", "fair-termination"],
    ["analyze", "fixtures/fig5.json", "--kind", "pc", "--check", "fair-termination"],
    ["belief", "fixtures/gdis.json"],
], ids=["gdis-fair-json", "fig5-fair-text", "gdis-belief-text"])
def test_witnesses_do_not_depend_on_hash_seed(argv):
    outs = {
        subprocess.run([sys.executable, "-m", "gamedyn.cli", *argv], cwd=ROOT,
                       env=_subprocess_env(PYTHONHASHSEED=seed), capture_output=True,
                       text=True, timeout=120).stdout
        for seed in ("1", "2")
    }
    assert len(outs) == 1 and "cycle" in outs.pop()


def test_debug_logging_leaves_the_output_alone():
    argv = [sys.executable, "-m", "gamedyn.cli", "analyze", "fixtures/gdis.json",
            "--kind", "pc", "--check", "fair-termination"]
    quiet, debug = (subprocess.run(argv, cwd=ROOT, env=_subprocess_env(**extra),
                                   capture_output=True, text=True, timeout=120)
                    for extra in ({}, {"GAMEDYN_LOG": "debug"}))
    assert (debug.returncode, debug.stdout) == (quiet.returncode, quiet.stdout)
    assert quiet.returncode == EXIT_UNSAFE and "fair cycle found" in quiet.stdout


def _modules_added(statements):
    """The modules that running statements adds to a fresh interpreter's."""
    probe = ("import sys; before = set(sys.modules); " + statements
             + "; print(); print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=_subprocess_env(),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return set(out.splitlines()[-1].split())


EXPORTED = [
    "BeliefGraph", "BeliefNode", "Comparison", "CycleWitness", "DeleteEdge", "DeleteVertex",
    "DeletionScript", "DisputeWheel", "DynamicsGraph", "FairnessReport", "FinitePlay", "Game",
    "GameDynError", "KINDS", "LassoPlay", "OneTargetGame", "Play", "PreferenceOrder",
    "Relation", "SafetyStatus", "SafetyVerdict", "StrategyProfile", "apply_script",
    "build_belief_graph", "build_dynamics", "canonicalize", "check_diamond", "compare_plays",
    "delete_edge", "delete_vertex", "enumerate_profiles", "equilibria", "export_dot",
    "extract_sdw_minor", "find_cycle", "find_dis_minor", "find_dispute_wheel",
    "find_fair_cycle", "find_lfair_cycle", "find_sdw", "is_bisimulation", "is_dis_pattern",
    "is_dominated", "is_notg", "is_partial_simulation", "is_simulation", "largest_simulation",
    "otg_from_game", "outcome", "parse_game", "parse_spp", "positional_plays",
    "reachable_two_sinks", "safety_verdict", "script_is_dominant", "sinks", "terminates",
    "transitive_closure", "validate_game", "validate_otg",
]


def test_package_lists_its_exports():
    import gamedyn

    assert len(EXPORTED) == 60
    assert gamedyn.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(gamedyn))


# the parameters of the bounded and searching entry points: guard (None for
# no bound) is the one bound option, so a new knob shows up as a diff here
OPTIONS = {
    "build_dynamics": ("game", "kind", "guard"),
    "build_belief_graph": ("game", "guard"),
    "enumerate_profiles": ("game", "guard"),
    "is_dominated": ("game", "e1", "e2", "guard"),
    "script_is_dominant": ("game", "script", "guard"),
    "safety_verdict": ("otg", "mode", "guard"),
    "find_dis_minor": ("game", "budget"),
    "find_fair_cycle": ("dg", "players"),
    "canonicalize": ("path", "loop"),
    "parse_spp": ("text", "complete_suffixes"),
}


def test_entry_points_take_one_bound_option():
    import inspect

    import gamedyn

    for name, params in OPTIONS.items():
        signature = inspect.signature(getattr(gamedyn, name))
        assert tuple(signature.parameters) == params, name
        assert "force" not in signature.parameters, name
    players = inspect.signature(gamedyn.find_fair_cycle).parameters["players"]
    assert players.default is inspect.Parameter.empty


def test_package_imports_a_name_or_submodule_on_first_use():
    loaded = _modules_added("import gamedyn; assert gamedyn.KINDS[0] == '1'; "
                            "assert gamedyn.graphs.__name__ == 'gamedyn.graphs'")
    assert {"gamedyn.errors", "gamedyn.graphs"} <= loaded
    assert not loaded & {"gamedyn.game", "gamedyn.dynamics", "gamedyn.cli"}


def test_cli_imports_only_the_standard_library():
    # every exported name is resolved too, which loads each module of the package
    loaded = _modules_added("import gamedyn, gamedyn.cli; "
                            "[getattr(gamedyn, name) for name in gamedyn.__all__]")
    assert {"gamedyn.cli", "gamedyn.spp", "gamedyn.minors", "gamedyn.relations",
            "gamedyn.dot"} <= loaded
    tops = {name.partition(".")[0] for name in loaded}
    assert {t for t in tops if t != "gamedyn" and t not in sys.stdlib_module_names} == set()
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, unused", [
    (["analyze", "fixtures/gdis.json", "--kind", "p1", "--check", "termination"],
     {"gamedyn.spp", "gamedyn.minors", "gamedyn.relations", "gamedyn.dot"}),
    (["spp", "sdw", "fixtures/safe.spp.json"],
     {"gamedyn.dynamics", "gamedyn.analysis", "gamedyn.minors", "gamedyn.strategy"}),
    (["dominated", "fixtures/fig2.json", "--edges", "v1,v2", "v1,v3"],
     {"gamedyn.graphs", "gamedyn.dynamics", "gamedyn.analysis", "gamedyn.spp"}),
    (["spp", "validate", "fixtures/safe.spp.json"],
     {"gamedyn.graphs", "gamedyn.dynamics", "gamedyn.minors", "gamedyn.strategy"}),
], ids=["analyze", "spp-sdw", "dominated", "spp-validate"])
def test_a_command_loads_only_the_modules_it_runs(argv, unused):
    loaded = _modules_added(f"from gamedyn.cli import run_cli; run_cli({argv!r})")
    assert "gamedyn.cli" in loaded
    assert not loaded & ({"dataclasses", "inspect", "logging"} | unused)


GDIS_DOC = json.loads((FIXTURES / "gdis.json").read_text())
FIG2_DOC = json.loads((FIXTURES / "fig2.json").read_text())
GDIS_P1 = GDIS_DOC["preferences"]["1"]


def gdis_player_1(classes):
    """gdis with player 1's rank classes replaced."""
    return {**GDIS_DOC, "preferences": {**GDIS_DOC["preferences"], "1": classes}}


# a game document and the error it gets
MALFORMED_GAMES = {
    "edges-not-a-list": ({**GDIS_DOC, "edges": 5}, "'edges' must be a list"),
    "owner-is-a-list": ({**GDIS_DOC, "owner": [1, 2]}, "'owner' must be an object"),
    "preferences-is-a-list": ({**GDIS_DOC, "preferences": [[]]},
                              "'preferences' must be an object"),
    "non-string-vertex": ({**GDIS_DOC, "vertices": GDIS_DOC["vertices"] + [7]},
                          "'vertices' must be a list of unique id strings"),
    "rank-class-not-a-list": ({**GDIS_DOC, "preferences": {"1": [5]}},
                              "preferences[1] must be a list of rank classes (lists)"),
    "lasso-stem-not-a-list": (
        {**GDIS_DOC, "preferences": {"1": [[{"lasso": {"stem": 5, "loop": ["v1", "v2"]}}]]}},
        "preferences[1][0]: 'stem' and 'loop' must be lists of vertex ids"),
    "edge-label-not-a-string": (
        {**GDIS_DOC, "edges": [["v1", "v2", 5]] + GDIS_DOC["edges"][1:]},
        "edge ['v1', 'v2', 5] must be [from, to] or [from, to, label]"),
    "players-is-a-bool": ({**FIG2_DOC, "players": True}, "'players' must be a positive integer"),
    "owner-is-a-bool": ({**FIG2_DOC, "owner": {**FIG2_DOC["owner"], "v1": True}},
                        "owner of 'v1' must be a player in 1..1"),
    "top-level-a-list": ([GDIS_DOC], "top level must be an object"),
    "no-owner": ({k: v for k, v in GDIS_DOC.items() if k != "owner"},
                 "missing fields ['owner']"),
    "play-path-and-lasso": (
        gdis_player_1([[{"path": ["v1", "vbot"], "lasso": {"stem": [], "loop": ["v1", "v2"]}}]]
                      + GDIS_P1[1:]),
        "preferences[1][0]: a play is {'path': [...]} or {'lasso': {...}}"),
    "empty-path": (gdis_player_1([[{"path": []}]] + GDIS_P1[1:]),
                   "preferences[1][0]: 'path' must be a non-empty list of vertex ids"),
    "lasso-third-key": (
        gdis_player_1(GDIS_P1[:2] + [[{"lasso": {"stem": [], "loop": ["v1", "v2"], "tail": []}}]]),
        "preferences[1][2]: 'lasso' must have exactly 'stem' and 'loop'"),
    "unknown-play-form": (gdis_player_1([[{"walk": ["v1", "v2", "vbot"]}]] + GDIS_P1[1:]),
                          "preferences[1][0]: unknown play form ['walk']"),
    "duplicate-edge": ({**GDIS_DOC, "edges": GDIS_DOC["edges"] + [["v1", "v2"]]},
                       "duplicate edge ['v1', 'v2']"),
    "owner-unknown-vertex": ({**GDIS_DOC, "owner": {**GDIS_DOC["owner"], "zz": 1}},
                             "unknown vertex 'zz' in owner map"),
    "play-unknown-vertex": (gdis_player_1([[{"path": ["v1", "zz", "vbot"]}]] + GDIS_P1[1:]),
                            "unknown vertex 'zz' in preferences[1][0]"),
    "preferences-unknown-player": (
        {**GDIS_DOC, "preferences": {**GDIS_DOC["preferences"], "9": []}},
        "preferences for unknown players ['9']"),
    "invalid-play": (gdis_player_1([[{"path": ["vbot", "v1"]}]] + GDIS_P1[1:]),
                     "InvalidPlay(player 1, vbot->v1)"),
    "duplicate-play": (gdis_player_1(GDIS_P1 + [[{"path": ["v1", "v2", "vbot"]}]]),
                       "DuplicatePlay(player 1, v1->v2->vbot)"),
    "empty-lasso-loop": (gdis_player_1(GDIS_P1 + [[{"lasso": {"stem": ["v1"], "loop": []}}]]),
                         "empty lasso loop"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GAMES))
def test_malformed_game_exits_5(tmp_path, name):
    doc, message = MALFORMED_GAMES[name]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("analyze", str(path), "--kind", "p1", "--check", "termination")
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


# an edit, in a deletion script that minor reads or on dominated's command
# line, and the error it gets
MALFORMED_EDITS = {
    "edge-one-vertex": ([{"edge": ["v1"]}], "script step 0: 'edge' must be [source, target]"),
    "edge-not-a-list": ([{"edge": 5}], "script step 0: 'edge' must be [source, target]"),
    "not-a-list": (5, "a deletion script must be a list of steps"),
    "dominated-edge-one-vertex": (["v1", "v1,vbot"], "edge 'v1' must be 'source,target'"),
    "dominated-unknown-edge": (["v1,zz", "v1,vbot"], "edge ('v1', 'zz') is not in the arena"),
    "two-keys": ([{"edge": ["v1", "vbot"], "vertex": "v1"}],
                 "script step 0: expected one-key record"),
    "unknown-kind": ([{"vertexx": "v1"}], "script step 0: unknown kind {'vertexx'}"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_EDITS))
def test_malformed_script_exits_5(tmp_path, name):
    edit, message = MALFORMED_EDITS[name]
    if name.startswith("dominated"):
        argv = ["dominated", str(FIXTURES / "fig5.json"), "--edges", *edit]
    else:
        path = tmp_path / "script.json"
        path.write_text(json.dumps(edit))
        argv = ["minor", GDIS, "--script", str(path)]
    code, out, err = run(*argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


def test_one_step_guard_counts_history_profiles():
    code, out, err = run("--guard", "100", "dynamics", FIG2, "--kind", "1")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == ("error: state space has 768 elements, guard is 100 "
                   "(use force to override)\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_belief_guard_counts_belief_nodes(fmt):
    # fig4 has 8 profiles and 3 players: 8 ** 3 belief nodes
    code, out, err = run("--guard", "100", "--output", fmt, "belief",
                         str(FIXTURES / "fig4.json"))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == ("error: state space has 512 elements, guard is 100 "
                   "(use force to override)\n")


GDIS_SPP_DOC = json.loads((FIXTURES / "gdis.spp.json").read_text())
GDIS_SPP_NODES = GDIS_SPP_DOC["nodes"]
V1_PATHS = GDIS_SPP_NODES["v1"]["paths"]


def gdis_spp_v1(paths):
    """gdis.spp with v1's ranked paths replaced."""
    return {**GDIS_SPP_DOC, "nodes": {**GDIS_SPP_NODES, "v1": {"paths": paths}}}


# an instance document and the error it gets
MALFORMED_SPP = {
    "paths-not-a-list": ({**GDIS_SPP_DOC, "nodes": {**GDIS_SPP_NODES, "v1": {"paths": 5}}},
                         "v1: node v1: expected a paths list"),
    "path-not-a-list": (gdis_spp_v1([5]), "v1: node v1: path 5 must be a list"),
    "extra-edges-not-a-list": ({**GDIS_SPP_DOC, "extra_edges": 5},
                               "'extra_edges' must be a list of [from, to] pairs"),
    "extra-edge-not-a-list": ({**GDIS_SPP_DOC, "extra_edges": [5]},
                              "'extra_edges' must be a list of [from, to] pairs"),
    "extra-edge-one-node": ({**GDIS_SPP_DOC, "extra_edges": [["a"]]},
                            "'extra_edges' must be a list of [from, to] pairs"),
    # the origin would become a non-terminal that no player owns
    "extra-edge-from-origin": ({**GDIS_SPP_DOC, "extra_edges": [["vbot", "v1"]]},
                               "extra edge (vbot,v1) leaves the origin"),
    "top-level-a-list": ([GDIS_SPP_DOC], "top level must be an object"),
    "unknown-field": ({**GDIS_SPP_DOC, "paths": []}, "unknown fields: ['paths']"),
    "no-origin": ({"nodes": GDIS_SPP_NODES}, "need an origin id and a non-empty nodes table"),
    "origin-ranks-paths": (
        {**GDIS_SPP_DOC, "nodes": {**GDIS_SPP_NODES, "vbot": {"paths": [["vbot"]]}}},
        "the origin cannot rank paths"),
    "path-not-from-its-node": (gdis_spp_v1([["vbot", "v1"]] + V1_PATHS),
                               "v1: node v1: path ['vbot', 'v1'] must run from v1 to vbot"),
    "duplicate-path": (gdis_spp_v1(V1_PATHS + [["v1", "vbot"]]),
                       "v1: node v1: duplicate path ['v1', 'vbot']"),
    "path-unknown-node": (gdis_spp_v1([["v1", "zz", "vbot"]] + V1_PATHS),
                          "path ['v1', 'zz', 'vbot'] passes through unknown node zz"),
    "extra-edge-unknown-node": ({**GDIS_SPP_DOC, "extra_edges": [["v1", "zz"]]},
                                "extra edge (v1,zz) uses unknown vertices"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPP))
def test_malformed_spp_exits_5(tmp_path, name):
    doc, message = MALFORMED_SPP[name]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["safety", "--mode", "both"]):
        code, out, err = run("spp", *argv, str(path))
        assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n"), argv


def test_dis_minor_deep_search_stops_at_the_budget(tmp_path):
    # one player owning a chain of 520 vertices, each with an exit to t: the
    # search deletes one edge per step, deeper than Python's recursion limit
    chain = [f"v{i:03d}" for i in range(520)]
    doc = {"players": 1, "vertices": chain + ["t"],
           "edges": [[v, "t"] for v in chain] + [list(e) for e in zip(chain, chain[1:])],
           "owner": {v: 1 for v in chain}, "preferences": {}}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("dis-minor", str(path), "--budget", "1500")
    assert (code, out) == (EXIT_ERROR, "")
    assert "search budget of 1500 expansions exceeded" in err and "Traceback" not in err


DEEP_JSON = "[" * 100000 + "]" * 100000
# the three places a document is read: a game, a routing instance, a script
READ_SITES = pytest.mark.parametrize("argv", [
    ["dynamics", "{doc}", "--kind", "p1"],
    ["spp", "validate", "{doc}"],
    ["minor", GDIS, "--script", "{doc}"],
], ids=["game", "spp", "script"])


@READ_SITES
def test_deeply_nested_json_exits_5(tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run(*(a.format(doc=path) for a in argv))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: invalid JSON:") and "Traceback" not in err


@READ_SITES
def test_non_utf8_input_exits_5(tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(*(a.format(doc=path) for a in argv))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error:") and "can't decode" in err and "Traceback" not in err


def test_update_guard_counts_concurrent_updates():
    # fig5 has 12 profiles and 44 pc updates
    argv = ["analyze", str(FIXTURES / "fig5.json"), "--kind", "pc", "--check", "termination"]
    code, out, err = run("--guard", "12", *argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == ("error: pc dynamics has over 12 updates, guard is 12 "
                   "(use force to override)\n")
    code, out, err = run("--guard", "12", "--force", *argv)
    assert code in (EXIT_OK, EXIT_UNSAFE) and out.startswith("terminates: ") and err == ""


def test_update_guard_lets_a_query_answer_within_it(tmp_path):
    """The 10-vertex oscillating ring has 1024 profiles and 18,176 pc
    updates; termination builds 409 of them and equilibria none, so both
    answer at --guard 5000 as with --force, while dynamics, which reads
    every row, exits 5."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_doc(10, "oscillating")))
    for check, exit_code in (("termination", EXIT_UNSAFE), ("equilibria", EXIT_OK)):
        argv = ["analyze", str(path), "--kind", "pc", "--check", check]
        forced = run("--force", *argv)
        assert forced[0] == exit_code and forced[2] == ""
        assert run("--guard", "5000", *argv) == forced
    assert run("--guard", "5000", "dynamics", str(path), "--kind", "pc") == (
        EXIT_ERROR, "",
        "error: pc dynamics has over 5000 updates, guard is 5000 (use force to override)\n")


def test_dynamics_reads_equilibria_off_the_built_rows(monkeypatch):
    """dynamics builds every row to count the updates before it asks for
    the equilibria, so no profile is probed for a move: fig5 prints its
    golden bytes with has_move refusing every call."""
    from gamedyn.strategy import Profiles

    def refuse(self, i):
        raise AssertionError(f"has_move({i}) called")

    monkeypatch.setattr(Profiles, "has_move", refuse)
    monkeypatch.chdir(ROOT)
    entries = [e for e in GOLDEN if e["id"].startswith("fig5-dynamics-")]
    assert len(entries) == 15
    for entry in entries:
        expected = {k: v for k, v in entry.items() if k not in ("id", "argv")}
        assert run_captured(entry["argv"]) == expected, entry["id"]


# ---------------------------------------------------------------------------
# input contract: generated documents get an exit code, never a traceback

NAMES = ("v1", "v2", "v3", "t")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.sampled_from(NAMES),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES + ("path", "lasso", "stem", "loop")), kids,
                      max_size=3),
    max_leaves=6)


def _corrupted(draw, doc):
    """doc, or doc with one field dropped or replaced by any JSON value."""
    how = draw(st.sampled_from(("keep", "keep", "drop", "replace")))
    if how != "keep" and isinstance(doc, dict) and doc:
        key = draw(st.sampled_from(sorted(doc)))
        doc = {k: v for k, v in doc.items() if k != key}
        if how == "replace":
            doc[key] = draw(json_values)
    return doc


@st.composite
def _plays(draw, vertices, succ):
    """A play as the game format writes it: a walk to a terminal, a lasso at
    its first repeat, or a path cut short."""
    path = [draw(st.sampled_from(vertices))]
    while succ.get(path[-1]) and len(path) < 5:
        w = draw(st.sampled_from(succ[path[-1]]))
        if w in path:
            i = path.index(w)
            return {"lasso": {"stem": path[:i], "loop": path[i:]}}
        path.append(w)
    return {"path": path}


@st.composite
def game_docs(draw):
    vertices = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    vertex = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(vertex, vertex), unique=True, max_size=6))
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    players = draw(st.integers(1, 3))
    ranked = draw(st.lists(_plays(vertices, succ), max_size=4, unique_by=json.dumps))
    preferences = {}
    for play in ranked:  # each in a new class or in the last one
        classes = preferences.setdefault(str(draw(st.integers(1, players))), [])
        if not classes or draw(st.booleans()):
            classes.append([])
        classes[-1].append(play)
    doc = {"players": players, "vertices": vertices, "edges": [list(e) for e in edges],
           "owner": {u: draw(st.integers(1, players)) for u in sorted(succ)},
           "preferences": preferences}
    return _corrupted(draw, doc)


@st.composite
def routing_docs(draw):
    origin, *names = draw(st.permutations(NAMES))
    names = names[:draw(st.integers(1, len(names)))]

    def routes(v):
        """Paths from v to the origin, through the other nodes."""
        middles = st.lists(st.sampled_from([w for w in names if w != v]), unique=True,
                           max_size=2) if len(names) > 1 else st.just([])
        return st.lists(middles.map(lambda m: [v, *m, origin]), min_size=1, max_size=3,
                        unique_by=tuple)

    nodes = {v: {"paths": draw(routes(v))} for v in names}
    return _corrupted(draw, {"origin": origin, "nodes": nodes})


@st.composite
def script_docs(draw):
    vertex = st.sampled_from(("v1", "v2", "v3", "vbot", "zz"))
    step = st.one_of(st.lists(vertex, min_size=2, max_size=2).map(lambda e: {"edge": e}),
                     vertex.map(lambda v: {"vertex": v}))
    return _corrupted(draw, draw(st.lists(step, max_size=3)))


def _commands(draw, fmt, path):
    kind = st.sampled_from(KINDS)
    if fmt == "game":
        command = draw(st.sampled_from(("analyze", "belief", "dis-minor", "dynamics")))
        argv = [command, path]
        if command in ("analyze", "dynamics"):
            argv += ["--kind", draw(kind)]
        if command == "analyze":
            argv += ["--check", draw(st.sampled_from(
                ("termination", "fair-termination", "equilibria")))]
        return argv
    if fmt == "routing":
        argv = ["spp", draw(st.sampled_from(("validate", "dw", "sdw", "safety"))), path,
                "--mode", draw(st.sampled_from(("structural", "exact", "both")))]
        return argv + ["--complete-suffixes"] * draw(st.booleans())
    game = draw(st.sampled_from((GDIS, FIG3, str(FIXTURES / "fig5.json"))))
    return ["minor", game, "--script", path, "--kind", draw(kind)]


DOCS = {"game": game_docs(), "routing": routing_docs(), "script": script_docs()}


@pytest.mark.parametrize("fmt", sorted(DOCS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_input_gets_an_exit_code(tmp_path_factory, fmt, data):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{fmt}.json"
    path.write_text(json.dumps(data.draw(DOCS[fmt])))
    argv = ["--output", data.draw(st.sampled_from(("text", "json"))),
            *_commands(data.draw, fmt, str(path))]
    code, _, err = run("--guard", "5000", *argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_UNSAFE, EXIT_UNKNOWN, EXIT_ERROR)
    assert "Traceback" not in err
