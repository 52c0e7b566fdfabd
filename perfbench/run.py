#!/usr/bin/env python3
"""gamedyn benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload ring|sweep|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a gamedyn checkout.  Load is closed-loop from this one
process: one call or CLI invocation at a time.  The workload repeats whole
rounds of its verdicts, at least its MIN_ROUNDS and until S seconds of
measured wall time have passed, then checks every verdict against
references that do not come from gamedyn.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs one untraced and one traced round and reports the
per-layer metrics instead, writing the spans to .bench_out/.  End-to-end
times are scaled to a nominal host speed by the workload's host-speed
reference, sampled around them (harness.Recorder).  See perfbench/README.md
for the layer map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from harness import IN_PROCESS, Recorder, Tracer, median, scaled, tail

ROOT = Path(__file__).resolve().parent.parent
# Set iteration order, and with it how much of a graph the early-exit
# searches scan, depends on the hash seed: every run uses this one.
HASH_SEED = "0"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
WORKLOADS = {"ring": "ring", "sweep": "sweep", "cli": "clibench"}
REQUIRED = ("src/gamedyn/__init__.py", "tests/theorem_suites.py",
            "tests/oracles.py", "tests/generators.py", "fixtures/gdis.json")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print the seconds it took, and exit")
    return ap.parse_args(argv)


def _reference(module):
    """The workload's host-speed reference: (function, nominal seconds)."""
    return getattr(module, "REFERENCE", IN_PROCESS)


def _setup(module, seed, tr):
    """The workload's inputs, made untimed, then its set-up (imports,
    parsing, warm-up), timed and scaled to the nominal host speed."""
    reference, nominal_s = _reference(module)
    ctx = module.prepare(seed, ROOT)
    before = reference()
    t0 = time.perf_counter()
    module.setup(ctx, tr)
    dt = time.perf_counter() - t0
    return ctx, scaled(dt, [before, reference()], nominal_s)


def _setup_probes(args):
    """Set-up time of fresh processes; the first one also pays for
    compiling the library, which the median discounts."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def _rounds(module, ctx, rec, tr, seconds, min_rounds):
    while rec.rounds < min_rounds or rec.wall_s < seconds:
        with rec.round():
            module.run_round(ctx, rec, tr)


def _peak_rss_mb(module, ctx):
    if hasattr(module, "peak_rss_mb"):
        return module.peak_rss_mb(ctx)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _end_to_end(rec, setup_s, rss_mb):
    # A verdict repeated across rounds counts with its fastest repetition,
    # each scaled to the nominal host speed: the host this was built on runs
    # the same code up to twice as slowly for seconds to minutes at a time.
    best = {}
    for e in rec.verdicts:
        lat = rec.scaled_latency(e)
        best[e["key"]] = min(best.get(e["key"], lat), lat)
    lat = list(best.values())
    n = len(rec.verdicts)
    failed = sum(e["status"] == "failed" for e in rec.verdicts)
    undecided = sum(e["status"] == "undecided" for e in rec.verdicts)
    tail_s, pct = tail(lat)
    values = {
        "setup_s": setup_s,
        "verdicts_per_s": len(lat) / sum(lat),
        "verdict_p50_ms": median(lat) * 1000,
        "verdict_tail_ms": tail_s * 1000,
        "peak_rss_mb": rss_mb,
        "passed_ratio": 1 - failed / n,
        "decided_ratio": 1 - undecided / n,
    }
    notes = {
        "verdicts": n, "keys": len(lat), "rounds": rec.rounds, "wall_s": rec.wall_s,
        "tail_percentile": round(pct, 2), "failed_ratio": failed / n,
        "scale": median([rec.nominal_s / r for r in rec.refs]),
        "undecided_ratio": undecided / n,
    }
    return values, notes


def _scaled_sum(rec):
    return sum(rec.scaled_latency(e) for e in rec.verdicts)


def _per_layer(tr, untraced_wall, traced_wall, spec):
    times = tr.self_times()
    counts = tr.counts
    derived = {
        "dynamics.edges_per_profile": counts.get("dynamics.edges", 0)
        / max(counts.get("dynamics.nodes", 0), 1),
        "relations.kept_ratio": counts.get("relations.pairs_kept", 0)
        / max(counts.get("relations.pairs_start", 0), 1),
        "minors.fast_path_ratio": counts.get("minors.fast_path", 0)
        / max(counts.get("minors.dis_minor_calls", 0), 1),
        "analysis.graphs_probe_share": (times.get("graphs.digraph_s", 0)
                                        + times.get("graphs.scc_s", 0))
        / max(times.get("analysis.fair_s", 0) + times.get("analysis.cycle_s", 0), 1e-9),
        "trace.overhead_ratio": (traced_wall - untraced_wall) / untraced_wall,
        "trace.spans": len(tr.spans),
    }
    out = {}
    for m in spec:
        name = m["name"]
        value = derived.get(name, counts.get(name, times.get(name, 0)))
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    args = _args(sys.argv[1:])
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gamedyn checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        ctx, setup_s = _setup(module, args.seed, Tracer(False))
        getattr(module, "cleanup", lambda c: None)(ctx)
        print(setup_s)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    samples = _setup_probes(args)
    tr = Tracer(bool(args.trace))
    ctx, setup_main = _setup(module, args.seed, tr)
    samples.append(setup_main)
    try:
        if args.trace:
            # one untraced round as the reference for the tracing overhead
            base = Recorder(_reference(module))
            _rounds(module, ctx, base, Tracer(False), 0, 1)
            rec = Recorder(_reference(module))
            _rounds(module, ctx, rec, tr, 0, 1)
        else:
            rec = Recorder(_reference(module))
            _rounds(module, ctx, rec, tr, args.seconds, getattr(module, "MIN_ROUNDS", 1))
        rss_mb = _peak_rss_mb(module, ctx)
        module.check(ctx, rec)
    finally:
        getattr(module, "cleanup", lambda c: None)(ctx)

    values, notes = _end_to_end(rec, median(samples), rss_mb)
    failed = [e for e in rec.verdicts if e["status"] == "failed"]
    unknown = [e for e in failed if not e.get("known")]
    problems = ctx["problems"] + [f"{e['key']}: {'; '.join(e['problems'])}"
                                  for e in unknown]
    print(f"workload {args.workload} seed {args.seed}: {notes['verdicts']} verdicts "
          f"in {notes['rounds']} round(s), {notes['wall_s']:.3f} s measured")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in values.items():
        print(f"  {name:16} {value:12.4f} {units[name]}")
    print(f"  each of {notes['keys']} verdicts counts with its fastest of "
          f"{notes['rounds']} round(s); verdict_tail_ms is p{notes['tail_percentile']}; "
          f"setup_s is the median of {len(samples)} set-ups; times are scaled "
          f"to the nominal host speed by a median factor of {notes['scale']:.3f}; "
          f"failed_ratio {notes['failed_ratio']:.4f}, "
          f"undecided_ratio {notes['undecided_ratio']:.4f}")
    for e in failed:
        tag = f"known defect: {e['known']}" if e.get("known") else "DISAGREES"
        print(f"  failed [{tag}] {e['key']}: {'; '.join(e['problems'])}")
    for p in ctx["problems"]:
        print(f"  problem: {p}")

    if args.trace:
        # both rounds' verdict times scaled to the nominal host speed, so
        # that a change of host speed between them does not read as overhead
        metrics = _per_layer(tr, _scaled_sum(base), _scaled_sum(rec), spec["per_layer"])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps({"spans": tr.dump(), "counts": tr.counts}))
        for name, m in metrics.items():
            print(f"  {name:32} {m['value']:14.6f} {m['unit']}")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not problems, "attempted": len(rec.verdicts),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
