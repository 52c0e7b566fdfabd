#!/usr/bin/env python3
"""Run the benchmark on another revision and on this checkout (or a second
revision) in alternating pairs, and write the result to BENCH_<label>.json.

    python scripts/bench_pair.py <rev> <label> [--change REV] \\
        [--workloads ring sweep cli] [--seed S] [--pairs N] [--seconds T]

<rev> (the base) is exported with `git archive` into a temporary directory,
and the change beside it: --change REV if given, else this checkout as it
stands (tracked files with their edits, and untracked files that
.gitignore does not name), so that both sides run from like places.  Each
side runs its own perfbench/run.py, once per seed S..S+N-1 and workload,
the side that goes first alternating from pair to pair.  For each
workload, metric and side, the file holds every pair's value, the median
and the quartiles (statistics.quantiles, inclusive), and the pairs the
change wins out of N, judged by the metric's `better` in BENCHMARK.json;
a tie is no win.  It also holds each run's host-speed factor, by which
run.py scales its times to the nominal host, the revisions as given and
the commit each resolved to (the checkout's HEAD for the checkout), and
"dirty": true when the change is the checkout and its tracked files
differ from HEAD.  A run that fails stops the script with status 1 and
no file written: the message names the side, workload and seed and ends
with the last lines of the run's stderr.
"""

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile

from revision import ROOT, export, working_tree

SIDES = ("base", "change")
TAIL = 20  # lines of a failed run's stderr to show


def run(tree: pathlib.Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py in tree: its end-to-end metrics and host-speed
    factor.  If the run fails, exit with status 1, naming it."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-TAIL:])
        sys.exit(f"the {side} run of {workload} at seed {seed} exited with status "
                 f"{done.returncode}; the last lines of its stderr:\n{tail}")
    report = json.loads(done.stdout.splitlines()[-1])
    scale = re.search(r"median factor of ([0-9.]+)", done.stdout)
    return {"correct": report["correct"], "host_scale": float(scale[1]) if scale else None,
            "metrics": {name: m["value"] for name, m in report["metrics"].items()}}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def summary(values: list) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                  else values * 3)
    return {"values": values, "median": q2, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the base revision, e.g. HEAD~1")
    ap.add_argument("label", help="names the file written, BENCH_<label>.json")
    ap.add_argument("--change", metavar="REV",
                    help="a revision to run as the change (default: this checkout)")
    ap.add_argument("--workloads", nargs="+", default=["ring", "sweep", "cli"])
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", type=pathlib.Path, default=ROOT,
                    help="the directory to write to (default: the repository root)")
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    seeds = list(range(args.seed, args.seed + args.pairs))
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in (("base", args.rev), ("change", args.change or "HEAD"))}
    dirty = not args.change and bool(git("status", "--porcelain", "--untracked-files=no"))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in SIDES}
        export(args.rev, trees["base"])
        export(args.change or working_tree(), trees["change"])
        workloads = {}
        for workload in args.workloads:
            runs = {side: [] for side in SIDES}
            for p, seed in enumerate(seeds):
                for side in SIDES if p % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run(trees[side], side, workload, seed, args.seconds))
                    print(workload, seed, side, runs[side][-1]["metrics"], file=sys.stderr)
            metrics = {}
            for name, how in better.items():
                got = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
                wins = sum(c > b if how == "higher" else c < b
                           for b, c in zip(got["base"], got["change"]))
                metrics[name] = {"better": how, "wins": wins, "pairs": len(seeds),
                                 **{side: summary(got[side]) for side in SIDES}}
            workloads[workload] = {
                "first": [SIDES[p % 2] for p in range(len(seeds))], "metrics": metrics,
                "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
                "host_scale": {side: [r["host_scale"] for r in runs[side]] for side in SIDES}}
    out = {"base": args.rev, "change": args.change or "checkout", "commits": commits,
           **({"dirty": True} if dirty else {}), "seeds": seeds, "seconds": args.seconds,
           "workloads": workloads}
    target = args.out / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(out, indent=1) + "\n")
    for workload, got in workloads.items():
        for name, m in got["metrics"].items():
            print(f"{workload:6} {name:16} {m['base']['median']:12.4f} "
                  f"{m['change']['median']:12.4f}  wins {m['wins']}/{m['pairs']}")
    print(f"written to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
