#!/usr/bin/env python3
"""Time the profile kernel of this checkout against another revision, in one
process.

    python scripts/kernel_pair.py <rev> [group ...] [--rounds N] [--seeds N]

<rev>'s src/gamedyn is exported with `git archive` into a temporary
directory as the package `gamedyn_base` and imported beside this checkout's
`gamedyn`.  Both sides parse the same game documents, and each round times
every task on both sides, the side that goes first alternating, so that a
slow phase of the host hits both alike; each task keeps its best round.

Task groups (moves, equilibria and rows unless others are named):
- moves: a fresh Profiles per random_game seed 0..N-1 (--seeds) and one
  moves pass, improving moves only, over every profile;
- equilibria: a fresh p1 graph of a 10-vertex ring, then equilibria;
- rows: a fresh graph of the oscillating 10-vertex ring, then every row;
- fill: a fresh graph of the converging 10-vertex ring, then every row, as
  a "terminates" verdict reads them;
- verdicts: per kind, a fresh graph of the converging 10-vertex ring, then
  find_cycle, find_fair_cycle and equilibria, as one `ring` round asks them;
- scans: a fresh p1 graph of a 12- and of a 14-vertex ring, named at random
  as the `ring` benchmark names them, then equilibria;
- dominated: is_dominated on the converging 12-vertex ring named at random,
  for an edge to the next vertex against the edge to the terminal (it
  holds) and the other way round (it fails); and on every ordered pair of
  sibling edges of random_game seeds 0..N-1, on games parsed before the
  timing and, as "fresh", on games parsed in it, so that each builds its
  rank table afresh, as the minors a sweep checks do;
- delete: every vertex deleted, refusals included, of random_game seeds
  0..N-1 parsed in the timing, as a sweep's random scripts try them, and of
  a complete arena of 7 non-terminals with one squeezable vertex;
- belief: a fresh belief graph of an n-vertex ring with n players, for n = 3
  and 4, then sinks, check_diamond and find_lfair_cycle, as one `ring`
  round asks them of its 3-vertex rings;
- label: a fresh pc graph of the 14-vertex oscillating ring named at
  random, then find_cycle and a label of every node of its witness, as
  `analyze --check termination` prints it;
- routing: the structural safety verdict and find_dis_minor of each
  random_notg seed 0..N-1 (--seeds), its game parsed and made a one-target
  game before the timing.
"""

import argparse
import importlib
import itertools
import json
import pathlib
import random
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from revision import export  # noqa: E402
from tests.generators import (dense_squeeze_doc, game_doc, random_game, random_notg,  # noqa: E402
                              ring_doc)

BASE = "gamedyn_base"
RING = 10
SCANNED = (12, 14)
FAMILIES = ("oscillating", "converging")
DENSE = 7
BELIEF = (3, 4)
KINDS = ("p1", "bp1", "pc", "bpc")
GROUPS = ("moves", "equilibria", "rows", "fill", "verdicts", "scans", "dominated", "delete",
          "belief", "label", "routing")


def tasks(package: str, docs: list, rings: dict, routes: list) -> dict:
    """Task name -> a function of no arguments that runs it on package."""
    pkg = importlib.import_module(package)
    Profiles = importlib.import_module(f"{package}.strategy").Profiles
    NotDeletable = importlib.import_module(f"{package}.errors").NotDeletable
    games = [pkg.parse_game(text) for text in docs]
    ring = {name: pkg.parse_game(text) for name, text in rings.items()}
    otgs = [pkg.otg_from_game(pkg.parse_game(text)) for text in routes]
    siblings = [(game, (v, w1), (v, w2)) for game in games for v in game.non_terminals()
                for w1, w2 in itertools.permutations(game.successors(v), 2)]

    def moves():
        for game in games:
            profiles = Profiles(game)
            for i in range(len(profiles)):
                profiles.moves_at(i, False)

    def equilibria(family):
        return lambda: pkg.equilibria(pkg.build_dynamics(ring[family], "p1"))

    def rows(kind, family="oscillating"):
        return lambda: list(pkg.build_dynamics(ring[family], kind).succ)

    def verdicts(kind):
        def run():
            dg = pkg.build_dynamics(ring["converging"], kind)
            return (pkg.find_cycle(dg), pkg.find_fair_cycle(dg, players=(1, 2, 3)),
                    pkg.equilibria(dg))
        return run

    def belief(name):
        def run():
            bg = pkg.build_belief_graph(ring[name])
            return pkg.sinks(bg), pkg.check_diamond(bg), pkg.find_lfair_cycle(bg)
        return run

    def label(name):
        def run():
            dg = pkg.build_dynamics(ring[name], "pc")
            return [dg.label(node) for node in pkg.find_cycle(dg).cycle]
        return run

    def routing():
        for otg in otgs:
            pkg.safety_verdict(otg, "structural")
            pkg.find_dis_minor(otg.game)

    def dominated(name, holds):
        game = ring[name]
        v = game.non_terminals()[0]
        (t,) = game.terminals
        (w,) = set(game.successors(v)) - {t}
        pair = [(v, w), (v, t)] if holds else [(v, t), (v, w)]
        return lambda: pkg.is_dominated(game, *pair)

    def siblings_dominated():
        for game, e1, e2 in siblings:
            pkg.is_dominated(game, e1, e2)

    def fresh_siblings_dominated():
        for text in docs:
            game = pkg.parse_game(text)
            for v in game.non_terminals():
                for w1, w2 in itertools.permutations(game.successors(v), 2):
                    pkg.is_dominated(game, (v, w1), (v, w2))

    def delete_every_vertex(texts):
        def run():
            for text in texts:
                game = pkg.parse_game(text)
                for v in sorted(game.vertex_set):
                    try:
                        pkg.delete_vertex(game, v)
                    except NotDeletable:
                        pass
        return run

    out = {f"moves random_game 0..{len(games) - 1}": moves}
    out.update((f"equilibria {family}-{RING}", equilibria(family)) for family in FAMILIES)
    out.update((f"rows {kind} oscillating-{RING}", rows(kind)) for kind in KINDS)
    out.update((f"fill {kind} converging-{RING}", rows(kind, "converging")) for kind in KINDS)
    out.update((f"verdicts {kind} converging-{RING}", verdicts(kind)) for kind in KINDS)
    out.update((f"scans equilibria {family}-{n}", equilibria(f"{family}-{n}"))
               for n in SCANNED for family in FAMILIES)
    name = f"converging-{SCANNED[0]}"
    out[f"dominated holds {name}"] = dominated(name, True)
    out[f"dominated fails {name}"] = dominated(name, False)
    out[f"dominated random_game 0..{len(games) - 1}"] = siblings_dominated
    out[f"dominated random_game 0..{len(games) - 1} fresh"] = fresh_siblings_dominated
    out[f"delete random_game 0..{len(games) - 1}"] = delete_every_vertex(docs)
    out[f"delete dense-{DENSE}"] = delete_every_vertex([json.dumps(dense_squeeze_doc(DENSE))])
    out.update((f"belief {family}-{n}, {n} players", belief(f"{family}-{n}x{n}"))
               for n in BELIEF for family in FAMILIES)
    name = f"oscillating-{SCANNED[1]}"
    out[f"label pc {name}"] = label(name)
    out[f"routing random_notg 0..{len(otgs) - 1}"] = routing
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    ap.add_argument("groups", nargs="*", metavar="group",
                    help=f"a task group to time, of {', '.join(GROUPS)} "
                         f"(default: {' '.join(GROUPS[:3])})")
    ap.add_argument("--rounds", type=int, default=30, help="rounds per side (best of)")
    ap.add_argument("--seeds", type=int, default=500,
                    help="random_game and random_notg seeds 0..N-1")
    args = ap.parse_args(argv)
    groups = args.groups or GROUPS[:3]
    if set(groups) - set(GROUPS):
        ap.error(f"unknown task group among {groups}; choose from {', '.join(GROUPS)}")
    docs = [json.dumps(game_doc(random_game(seed))) for seed in range(args.seeds)]
    routes = [json.dumps(game_doc(random_notg(seed).game)) for seed in range(args.seeds)]
    rings = {family: json.dumps(ring_doc(RING, family)) for family in FAMILIES}
    rng = random.Random(0)
    rings.update((f"{family}-{n}", json.dumps(ring_doc(n, family, rng=rng)))
                 for n in SCANNED for family in FAMILIES)
    rings.update((f"{family}-{n}x{n}", json.dumps(ring_doc(n, family, players=n)))
                 for n in BELIEF for family in FAMILIES)
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, pathlib.Path(tmp), "src/gamedyn", BASE)
        sys.path.insert(0, tmp)
        sides = {side: {name: task for name, task in tasks(package, docs, rings, routes).items()
                        if name.split()[0] in groups}
                 for side, package in ((args.rev, BASE), ("this", "gamedyn"))}
        best = {side: dict.fromkeys(run, float("inf")) for side, run in sides.items()}
        order = list(sides)
        for r in range(args.rounds):
            for side in order if r % 2 == 0 else order[::-1]:
                for name, task in sides[side].items():
                    start = time.perf_counter()
                    task()
                    best[side][name] = min(best[side][name], time.perf_counter() - start)
    base, this = best[args.rev], best["this"]
    width = max(map(len, base))
    print(f"{f'best of {args.rounds}, ms':{width}} {args.rev[:10]:>10} {'this':>10}  change")
    for name in base:
        print(f"{name:{width}} {base[name] * 1e3:10.2f} {this[name] * 1e3:10.2f}  "
              f"{this[name] / base[name] - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
