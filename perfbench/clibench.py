"""The `cli` workload: `gamedyn` as a fresh process per call.

Every fixture meets each command that applies to it, across the text, json
and dot outputs, together with a generated ring, a usage error, a missing
file and the three malformed inputs of ROADMAP item 4.  Each invocation
runs twice, under two PYTHONHASHSEED values: both are verdicts, and their
stdout must be byte-identical.  An invocation fails when it exits with
another code than expected, prints a traceback, or prints a witness or an
equilibrium set that the replayer rejects.  Every check runs on every
invocation, and a failure counts as a known defect only when the defect
explains all of its problems.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time

import replay
from harness import fail, median
from ring import ring_doc

CALL_TIMEOUT_S = 120
GAMES = ("fig2", "fig3", "fig4", "fig5", "gdis")
# Fixed, so that hash-dependent output fails the same way in every run;
# the workload seed shuffles the order of the invocations.
HASHSEEDS = (1, 2)
RING_SEED = 6
# Defects that stay in the workload and count as failed verdicts:
# id -> (reason, the problems the defect explains).
ITEM4 = ("ROADMAP item 4: a schema error exits 1 with a traceback, not 5",
         ("traceback (exit 1)", "exit 1, expected 5"))
HASH = ("fair-cycle and belief witnesses depend on PYTHONHASHSEED",
        ("stdout differs between PYTHONHASHSEED values",))
KNOWN_DEFECTS = {
    "edges-not-a-list": ITEM4,
    "owner-is-a-list": ITEM4,
    "script-edge-one-vertex": ITEM4,
    "gdis-fair-json": HASH,
    "fig5-fair-text": HASH,
    "ring-fair-json": HASH,
    "gdis-belief-text": HASH,
}


def _items(work):
    """(id, argv, expected exit code); None leaves the exit code of an
    analyze call to the replayer and the oracle."""
    f = {g: f"fixtures/{g}.json" for g in GAMES}
    gdis_spp, safe_spp = "fixtures/gdis.spp.json", "fixtures/safe.spp.json"
    incomplete = "fixtures/incomplete.spp.json"
    ring = f"{work}/ring.json"
    j, d = ["--output", "json"], ["--output", "dot"]

    def analyze(game, kind, check):
        return ["analyze", game, "--kind", kind, "--check", check]

    return [
        ("gdis-dynamics-dot", d + ["dynamics", f["gdis"], "--kind", "p1"], 0),
        ("gdis-dynamics-json", j + ["dynamics", f["gdis"], "--kind", "bp1"], 0),
        ("gdis-fair-json", j + analyze(f["gdis"], "pc", "fair-termination"), None),
        ("gdis-termination-text", analyze(f["gdis"], "p1", "termination"), None),
        ("gdis-equilibria-json", j + analyze(f["gdis"], "bpc", "equilibria"), 0),
        ("gdis-belief-text", ["belief", f["gdis"]], 3),
        ("gdis-dis-minor-json", j + ["dis-minor", f["gdis"]], 3),
        ("gdis-minor-json", j + ["minor", f["gdis"], "--script", f"{work}/gdis-script.json"], 0),
        ("fig2-dynamics-1-json", j + ["dynamics", f["fig2"], "--kind", "1"], 0),
        ("fig2-termination-json", j + analyze(f["fig2"], "p1", "termination"), None),
        ("fig2-dis-minor-text", ["dis-minor", f["fig2"]], 0),
        ("fig2-minor-text", ["minor", f["fig2"], "--script", f"{work}/fig2-script.json"], 0),
        ("fig3-fair-json", j + analyze(f["fig3"], "bpc", "fair-termination"), None),
        ("fig3-dis-minor-text", ["dis-minor", f["fig3"]], 3),
        ("fig3-belief-json", j + ["belief", f["fig3"]], 0),
        ("fig4-termination-json", j + analyze(f["fig4"], "pc", "termination"), None),
        ("fig4-dynamics-text", ["dynamics", f["fig4"], "--kind", "bp1"], 0),
        ("fig4-belief-dot", d + ["belief", f["fig4"]], 0),
        ("fig5-fair-text", analyze(f["fig5"], "pc", "fair-termination"), None),
        ("fig5-dominated-json", j + ["dominated", f["fig5"], "--edges", "v1,vbot", "v1,v4"], 0),
        ("fig5-dis-minor-json", j + ["dis-minor", f["fig5"]], 3),
        ("fig5-equilibria-json", j + analyze(f["fig5"], "p1", "equilibria"), 0),
        ("spp-gdis-safety-json", j + ["spp", "safety", gdis_spp, "--mode", "both"], 3),
        ("spp-safe-safety-text", ["spp", "safety", safe_spp], 0),
        ("spp-gdis-dw-json", j + ["spp", "dw", gdis_spp], 3),
        ("spp-safe-sdw-text", ["spp", "sdw", safe_spp], 0),
        ("spp-gdis-validate-json", j + ["spp", "validate", gdis_spp], 0),
        ("spp-incomplete-text", ["spp", "safety", incomplete], 5),
        ("spp-completed-json", j + ["spp", "safety", incomplete, "--complete-suffixes",
                                    "--mode", "exact"], 3),
        ("ring-fair-json", j + analyze(ring, "bpc", "fair-termination"), None),
        ("ring-equilibria-json", j + analyze(ring, "p1", "equilibria"), 0),
        ("ring-dynamics-dot", d + ["dynamics", ring, "--kind", "pc"], 0),
        ("usage-error", ["analyze", f["gdis"], "--kind", "p1"], 2),
        ("missing-file", analyze(f"{work}/no-such-game.json", "p1", "termination"), 5),
        ("edges-not-a-list", analyze(f"{work}/edges-5.json", "p1", "termination"), 5),
        ("owner-is-a-list", analyze(f"{work}/owner-list.json", "p1", "termination"), 5),
        ("script-edge-one-vertex",
         ["minor", f["gdis"], "--script", f"{work}/script-edge-v1.json"], 5),
    ]


def _write_inputs(root, work):
    gdis = json.loads((root / "fixtures/gdis.json").read_text())
    ring, _ = ring_doc(6, "oscillating", random.Random(RING_SEED))
    files = {
        "ring.json": ring,
        "gdis-script.json": [{"edge": ["v1", "vbot"]}],
        "fig2-script.json": [{"edge": ["v4", "vbot"]}, {"vertex": "v4"},
                             {"edge": ["v1", "v5"]}],
        "edges-5.json": {**gdis, "edges": 5},
        "owner-list.json": {**gdis, "owner": [1, 2]},
        "script-edge-v1.json": [{"edge": ["v1"]}],
    }
    for name, doc in files.items():
        (work / name).write_text(json.dumps(doc))


def _game_of(root, argv):
    """The replayer's view of the game an analyze/dynamics call reads."""
    path = argv[argv.index("--kind") - 1]
    return replay.Game(json.loads((root / path).read_text()))


# The host-speed reference of this workload: an interpreter that starts and
# imports a fixed set of standard-library modules, as the CLI's own start
# does, with no gamedyn code.  Here the host's slow phases show in process
# start and module loading, which the in-process reference pass does not
# follow.
REFERENCE_IMPORTS = "import argparse, dataclasses, decimal, email.parser, enum, fractions, json, typing"


def start_s():
    """Wall time of one reference interpreter start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True,
                   timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - t0


# (reference, its nominal seconds): times read as on a host where that start
# takes 120 ms (a 2-core 2.0 GHz x86-64 VM, Python 3.11).
REFERENCE = (start_s, 0.12)


def _env(root, hashseed):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=str(hashseed))
    env.pop("GAMEDYN_LOG", None)
    return env


def invoke(root, work, argv, env):
    """Run one command to completion; (exit code, stdout, stderr, peak RSS kB)."""
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=env, cwd=root)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def prepare(seed, root):
    work = root / ".bench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    _write_inputs(root, work)
    items = _items(work.relative_to(root))
    random.Random(seed).shuffle(items)
    return {"root": root, "work": work, "items": items, "peak_kb": 0, "problems": []}


def setup(ctx, tr):
    import gamedyn.cli  # noqa: F401  import cost belongs to set-up

    # warm the interpreter's and the OS's caches with one call
    invoke(ctx["root"], ctx["work"], ["-m", "gamedyn.cli", "--help"],
           _env(ctx["root"], HASHSEEDS[0]))


def cleanup(ctx):
    shutil.rmtree(ctx["work"], ignore_errors=True)


def peak_rss_mb(ctx):
    return ctx["peak_kb"] / 1024


def run_round(ctx, rec, tr):
    root, work = ctx["root"], ctx["work"]
    for ident, argv, expect in ctx["items"]:
        for hashseed in HASHSEEDS:
            with tr.span("cli.invoke"):
                code, out, err, peak = invoke(root, work, ["-m", "gamedyn.cli", *argv],
                                              _env(root, hashseed))
            ctx["peak_kb"] = max(ctx["peak_kb"], peak)
            rec.verdict((ident, hashseed), (code, out, err))
            tr.add("cli.output_bytes", len(out))
        if tr.on:
            _probes(ctx, rec, tr, argv)
    if tr.on:
        _startup_probes(ctx, rec, tr)


def _probes(ctx, rec, tr, argv):
    """Trace-only: the same call in-process, and the parse, dot and safety
    layers on its input, each timed on its own."""
    from gamedyn import (build_dynamics, build_belief_graph, export_dot,
                         parse_game, parse_spp, safety_verdict)
    from gamedyn.cli import run_cli

    root = ctx["root"]
    with tr.probe(rec, "cli.run_s"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            run_cli(list(argv))
        except (Exception, SystemExit):  # usage errors and known defects
            pass
    path = next((a for a in argv if a.endswith(".json") and not a.endswith("-script.json")
                 and (root / a).is_file()), None)
    if path is None:
        return
    text = (root / path).read_text()
    if path.endswith(".spp.json"):
        if "safety" in argv and "--complete-suffixes" not in argv:
            with contextlib.suppress(Exception):
                otg = parse_spp(text)
                with tr.probe(rec, "spp.safety_s"):
                    safety_verdict(otg, argv[argv.index("--mode") + 1]
                                   if "--mode" in argv else "structural")
        return
    try:
        with tr.probe(rec, "game.parse_s"):
            game = parse_game(text)
    except Exception:  # malformed inputs: the library's own verdict
        return
    if argv[:2] == ["--output", "dot"]:
        obj = (build_belief_graph(game) if "belief" in argv
               else build_dynamics(game, argv[argv.index("--kind") + 1]))
        with tr.probe(rec, "dot.export_s"):
            tr.add("dot.bytes", len(export_dot(obj)))


def _startup_probes(ctx, rec, tr):
    root, work = ctx["root"], ctx["work"]
    env = _env(root, HASHSEEDS[0])
    with rec.paused():
        bare, imported = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            invoke(root, work, ["-c", "pass"], env)
            bare.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            invoke(root, work, ["-c", "import gamedyn.cli"], env)
            imported.append(time.perf_counter() - t0)
    tr.add("cli.startup_s", median(bare))
    tr.add("cli.import_s", median(imported) - median(bare))


def _check_json(game, argv, doc, players):
    """Problems with the verdict, witness or equilibria an analyze or
    dynamics call printed as JSON."""
    kind = argv[argv.index("--kind") + 1]

    def profiles(label):
        found = game.parse_label(label)
        if len(found) != 1:
            raise ValueError(f"label {label!r} names {len(found)} profiles")
        return found[0]

    problems = []
    if "equilibria" in doc:
        got = {replay.freeze(profiles(lb)) for lb in doc["equilibria"]}
        if got != replay.equilibria(game):
            problems.append("equilibria differ from the replayed game")
    cycle = [profiles(lb) for lb in doc.get("cycle", [])]
    if doc.get("check") == "termination":
        if doc["terminates"] == replay.has_cycle(game, kind):
            problems.append("termination verdict differs from the replayed dynamics")
        problems += replay.check_cycle(game, kind, cycle) if cycle else []
    if doc.get("check") == "fair-termination":
        problems += replay.check_fair_cycle(game, kind, cycle, players) if cycle else []
    return problems


def _expected_exit(ctx, argv):
    """Exit code of an analyze call, from the replayed dynamics and the
    brute-force oracle of tests/oracles.py."""
    from tests.oracles import fair_cycle_exists

    game = _game_of(ctx["root"], argv)
    kind = argv[argv.index("--kind") + 1]
    if "termination" in argv:
        return 3 if replay.has_cycle(game, kind) else 0
    nodes, edges = replay.dynamics_edges(game, kind)
    return 3 if fair_cycle_exists(nodes, edges, range(1, game.players + 1)) else 0


def check(ctx, rec):
    spec = {ident: (argv, expect) for ident, argv, expect in ctx["items"]}
    first = {}
    for e in rec.verdicts:
        ident, hashseed = e["key"]
        argv, expect = spec[ident]
        code, out, err = e.pop("result")
        if expect is None:
            expect = _expected_exit(ctx, argv)
            spec[ident] = (argv, expect)
        if b"Traceback" in err:
            fail(e, f"traceback (exit {code})")
        if code != expect:
            fail(e, f"exit {code}, expected {expect}")
        # each hash seed's JSON is replayed on its own, before the bytes
        # of the two are compared
        replayable = "--kind" in argv and argv[argv.index("--kind") + 1] != "1"
        if replayable and "json" in argv and code in (0, 3):
            game = _game_of(ctx["root"], argv)
            try:
                problems = _check_json(game, argv, json.loads(out),
                                       range(1, game.players + 1))
            except ValueError as exc:
                problems = [str(exc)]
            for problem in problems:
                fail(e, problem)
        if first.setdefault(ident, out) != out:
            fail(e, "stdout differs between PYTHONHASHSEED values")
        reason, explained = KNOWN_DEFECTS.get(ident, (None, ()))
        if reason and e["problems"] and all(p in explained for p in e["problems"]):
            e["known"] = reason
