#!/usr/bin/env python3
"""Rebuild every analysis behind the bundled fixture games and print a
short report for each: update-graph sizes, termination, fairness,
equilibria, and the routing-safety pipeline where it applies."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gamedyn import (  # noqa: E402
    build_belief_graph,
    build_dynamics,
    check_diamond,
    delete_edge,
    equilibria,
    find_dis_minor,
    find_fair_cycle,
    find_lfair_cycle,
    is_dominated,
    otg_from_game,
    parse_game,
    safety_verdict,
    sinks,
    terminates,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def load(name):
    return parse_game((FIXTURES / name).read_text())


def dyn_report(game, kinds=("p1", "bp1", "pc", "bpc")):
    players = tuple(range(1, game.n_players + 1))
    for kind in kinds:
        dg = build_dynamics(game, kind, guard=None)
        fair = find_fair_cycle(dg, players=players)
        eq = sorted(dg.label(e) for e in equilibria(dg))
        print(f"  {kind:>4}: {len(dg.nodes)} profiles, "
              f"terminates={terminates(dg)}, fair-cycle={fair.fair}, "
              f"equilibria={eq}")


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    print("two-player ring (gdis.json)")
    gdis = load("gdis.json")
    dyn_report(gdis)
    bg = build_belief_graph(gdis)
    lf = find_lfair_cycle(bg)
    print(f"  belief graph: {len(bg.nodes)} nodes, {len(sinks(bg))} sinks, "
          f"diamond={check_diamond(bg)[0]}, "
          f"label-fair cycle={'present' if lf else 'absent'}")
    verdict = safety_verdict(otg_from_game(gdis), "both")
    print(f"  routing safety: {verdict.status.value} ({verdict.method})")

    print("acyclic five-vertex game (fig2.json)")
    fig2 = load("fig2.json")
    one = build_dynamics(fig2, "1")
    print(f"  one-step graph: {len(one.nodes)} profiles, "
          f"terminates={terminates(one)}")

    print("three-vertex ring (fig3.json)")
    fig3 = load("fig3.json")
    dyn_report(fig3, kinds=("pc", "bpc"))
    script = find_dis_minor(fig3)
    print(f"  disagreement-pattern minor: "
          f"{script.to_json() if script else 'absent'}")

    print("three-player starvation game (fig4.json)")
    fig4 = load("fig4.json")
    dg = build_dynamics(fig4, "pc", guard=None)
    fair = find_fair_cycle(dg, players=(1, 2, 3))
    print(f"  pc: terminates={terminates(dg)}, fair-cycle={fair.fair}, "
          f"per-player={fair.per_player}")

    print("four-player dominated-edge game (fig5.json)")
    fig5 = load("fig5.json")
    dyn_report(fig5, kinds=("pc",))
    dom = is_dominated(fig5, ("v1", "vbot"), ("v1", "v4"))
    minor = delete_edge(fig5, ("v1", "vbot"))
    print(f"  (v1,vbot) dominated by (v1,v4): {dom}; after deleting it, "
          f"pc terminates={terminates(build_dynamics(minor, 'pc', guard=None))}")


if __name__ == "__main__":
    main()
