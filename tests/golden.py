"""The golden CLI transcript: every fixture under every command that applies
to it, in every output format, with its exit code, stdout and stderr.

`tests/test_cli.py` replays `tests/data/golden_cli.json` through `run_cli`.
To record it again (only when an output is meant to change):

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.golden

Paths in the transcript are relative to the repository root.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "data" / "golden_cli.json"

GAMES = ("fig2", "fig3", "fig4", "fig5", "gdis")
INSTANCES = ("gdis", "incomplete", "safe")
KINDS = ("1", "p1", "bp1", "pc", "bpc")
CHECKS = ("termination", "fair-termination", "equilibria")
LARGE = 4096  # a longer stdout is kept as its SHA-256 digest
SCRIPTS = {"fig2": "fig2-script.json", "fig3": "fig3-script.json",
           "gdis": "gdis-script.json"}


def _edge_pairs(path):
    """Every ordered pair of distinct edges that share a source."""
    edges = sorted(tuple(e[:2]) for e in json.loads((ROOT / path).read_text())["edges"])
    return [(a, b) for a in edges for b in edges if a != b and a[0] == b[0]]


def invocations():
    """(id, argv) for every entry of the transcript."""
    out = []
    for name in GAMES:
        game = f"fixtures/{name}.json"
        for kind in KINDS:
            for fmt in ("text", "json", "dot"):
                out.append((f"{name}-dynamics-{kind}-{fmt}",
                            ["--output", fmt, "dynamics", game, "--kind", kind]))
            for check in CHECKS:
                for fmt in ("text", "json"):
                    out.append((f"{name}-{check}-{kind}-{fmt}",
                                ["--output", fmt, "analyze", game, "--kind", kind,
                                 "--check", check]))
        for fmt in ("text", "json", "dot"):
            out.append((f"{name}-belief-{fmt}", ["--output", fmt, "belief", game]))
        for fmt in ("text", "json"):
            out.append((f"{name}-dis-minor-{fmt}", ["--output", fmt, "dis-minor", game]))
            for (u1, v1), (u2, v2) in _edge_pairs(game):
                out.append((f"{name}-dominated-{u1}{v1}-{u2}{v2}-{fmt}",
                            ["--output", fmt, "dominated", game, "--edges",
                             f"{u1},{v1}", f"{u2},{v2}"]))
            if name in SCRIPTS:
                for kind in ("p1", "pc"):
                    out.append((f"{name}-minor-{kind}-{fmt}",
                                ["--output", fmt, "minor", game, "--script",
                                 f"tests/data/{SCRIPTS[name]}", "--kind", kind]))
        out.append((f"{name}-guard", ["--guard", "1", "dynamics", game, "--kind", "p1"]))
    for name in INSTANCES:
        inst = f"fixtures/{name}.spp.json"
        for fmt in ("text", "json"):
            for extra in ([], ["--complete-suffixes"]):
                tag = "-completed" if extra else ""
                for action in ("validate", "dw", "sdw"):
                    out.append((f"spp-{name}-{action}{tag}-{fmt}",
                                ["--output", fmt, "spp", action, inst] + extra))
                for mode in ("structural", "exact", "both"):
                    out.append((f"spp-{name}-safety-{mode}{tag}-{fmt}",
                                ["--output", fmt, "spp", "safety", inst, "--mode", mode]
                                + extra))
    return out


def run_captured(argv):
    """What the transcript keeps of one in-process `gamedyn` call."""
    from gamedyn.cli import run_cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    result = {"exit": code, "stderr": err.getvalue()}
    if len(out.getvalue()) > LARGE:
        result["stdout_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    else:
        result["stdout"] = out.getvalue()
    return result


def record(path=TRANSCRIPT):
    os.chdir(ROOT)
    entries = []
    for ident, argv in invocations():
        entries.append({"id": ident, "argv": argv, **run_captured(argv)})
    pathlib.Path(path).write_text(json.dumps(entries, indent=1) + "\n")
    return entries


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.exit("record the transcript with PYTHONHASHSEED=0")
    print(f"{len(record(*sys.argv[1:]))} entries")
