"""Command-line front end: build dynamics, run analyses, apply minors,
check routing instances."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    KINDS,
    PROFILE_GUARD,
    SEARCH_BUDGET,
    GameDynError,
    GameFormatError,
    SuffixClosureRepairNeeded,
)
from .game import parse_game

# each command imports the modules it runs, so a process loads no others

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSAFE = 3
EXIT_UNKNOWN = 4
EXIT_ERROR = 5


def _setup_logging(level: str):
    import logging  # only when asked for: it costs milliseconds at every start

    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level.lower(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(args, record: dict, text_lines: list[str]):
    if args.output == "json":
        print(json.dumps(record, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


def _load_game(path: str):
    return parse_game(Path(path).read_text(encoding="utf-8"))


def _cmd_dynamics(args) -> int:
    from . import analysis, dynamics

    game = _load_game(args.game)
    dg = dynamics.build_dynamics(game, args.kind, guard=args.guard)
    if args.output == "dot":
        from .dot import export_dot

        sys.stdout.write(export_dot(dg))
        return EXIT_OK
    updates = sum(map(len, dg.succ))  # builds every row, so equilibria reads them
    eq = sorted(dg.label(n) for n in analysis.equilibria(dg))
    record = {
        "kind": dg.kind,
        "nodes": len(dg.nodes),
        "edges": updates,
        "equilibria": eq,
    }
    _emit(args, record, [
        f"dynamics {dg.kind}: {len(dg.nodes)} profiles, {updates} updates",
        f"equilibria: {', '.join(eq) if eq else '(none)'}",
    ])
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import analysis, dynamics

    game = _load_game(args.game)
    dg = dynamics.build_dynamics(game, args.kind, guard=args.guard)
    if args.check == "termination":
        witness = analysis.find_cycle(dg)
        record = {"check": "termination", "kind": args.kind,
                  "terminates": witness is None}
        lines = [f"terminates: {str(witness is None).lower()}"]
        if witness is not None:
            cyc = [dg.label(n) for n in witness.cycle]
            record["cycle"] = cyc
            lines.append("cycle: " + " -> ".join(cyc))
        _emit(args, record, lines)
        return EXIT_OK if witness is None else EXIT_UNSAFE
    if args.check == "fair-termination":
        report = analysis.find_fair_cycle(
            dg, players=range(1, game.n_players + 1))
        record = {"check": "fair-termination", "kind": args.kind,
                  "fairly_terminates": not report.fair,
                  "per_player": {str(k): v for k, v in report.per_player.items()}}
        if report.witness is not None:
            record["cycle"] = [dg.label(n) for n in report.witness.cycle]
        _emit(args, record, [report.describe(dg)])
        return EXIT_UNSAFE if report.fair else EXIT_OK
    eq = sorted(dg.label(n) for n in analysis.equilibria(dg))
    _emit(args, {"check": "equilibria", "kind": args.kind, "equilibria": eq},
          ["equilibria: " + (", ".join(eq) if eq else "(none)")])
    return EXIT_OK


def _cmd_minor(args) -> int:
    from . import dynamics, minors, relations

    game = _load_game(args.game)
    try:
        data = json.loads(Path(args.script).read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise GameFormatError(f"invalid JSON: {exc}") from exc
    minor = minors.apply_script(game, minors.DeletionScript.from_json(data))
    small, big = (dynamics.build_dynamics(g, args.kind, guard=args.guard)
                  for g in (minor, game))
    full = all(relations.simulators(small.succ, big.succ))
    record = {
        "vertices": sorted(minor.vertices),
        "edges": sorted(list(e) for e in minor.edges),
        "simulated": full,
        "kind": args.kind,
    }
    _emit(args, record, [
        f"minor: {len(minor.vertices)} vertices, {len(minor.edges)} edges",
        f"dynamics of the original simulate the minor's ({args.kind}): "
        f"{str(full).lower()}",
    ])
    return EXIT_OK if full else EXIT_UNSAFE


def _parse_edge(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise GameDynError(f"edge {text!r} must be 'source,target'")
    return (parts[0], parts[1])


def _cmd_dominated(args) -> int:
    from . import minors

    game = _load_game(args.game)
    e1, e2 = (_parse_edge(t) for t in args.edges)
    result = minors.is_dominated(game, e1, e2, guard=args.guard)
    _emit(args, {"edge": list(e1), "by": list(e2), "dominated": result},
          [f"({e1[0]},{e1[1]}) dominated by ({e2[0]},{e2[1]}): {str(result).lower()}"])
    return EXIT_OK


def _cmd_spp(args) -> int:
    from . import spp

    otg = spp.parse_spp(Path(args.instance).read_text(encoding="utf-8"),
                        complete_suffixes=args.complete_suffixes)
    if args.action == "validate":
        diags = spp.validate_otg(otg.game, otg.permitted)
        record = {"valid": not diags, "diagnostics": diags,
                  "next_hop_only": spp.is_notg(otg) if not diags else None}
        lines = [f"valid: {str(not diags).lower()}"] + diags
        if not diags:
            lines.append(f"next-hop-only preferences: {str(record['next_hop_only']).lower()}")
        _emit(args, record, lines)
        return EXIT_OK if not diags else EXIT_UNSAFE
    if args.action in ("dw", "sdw"):
        wheel = (spp.find_dispute_wheel if args.action == "dw" else spp.find_sdw)(otg)
        name = "dispute wheel" if args.action == "dw" else "strong dispute wheel"
        if wheel is None:
            _emit(args, {"found": False}, [f"no {name}"])
            return EXIT_OK
        record = {"found": True, "pivots": list(wheel.pivots),
                  "direct": [str(p) for p in wheel.direct],
                  "links": [list(h) for h in wheel.links]}
        _emit(args, record, [f"{name} found", wheel.describe()])
        return EXIT_UNSAFE
    verdict = spp.safety_verdict(otg, args.mode, guard=args.guard)
    record = {"status": verdict.status.value, "method": verdict.method}
    lines = [f"verdict: {verdict.status.value}", f"method: {verdict.method}"]
    evidence = verdict.evidence
    if isinstance(evidence, tuple) and evidence and isinstance(evidence[0], spp.DisputeWheel):
        evidence = evidence[0]
    if isinstance(evidence, spp.DisputeWheel):
        record["pivots"] = list(evidence.pivots)
        lines.append(evidence.describe())
    _emit(args, record, lines)
    if verdict.status.safe is True:
        return EXIT_OK
    if verdict.status.safe is False:
        return EXIT_UNSAFE
    return EXIT_UNKNOWN


def _cmd_belief(args) -> int:
    from . import analysis, dynamics

    game = _load_game(args.game)
    bg = dynamics.build_belief_graph(game, guard=args.guard)
    if args.output == "dot":
        from .dot import export_dot

        sys.stdout.write(export_dot(bg))
        return EXIT_OK
    all_sinks = sorted(bg.label(n) for n in analysis.sinks(bg))
    diamond, cex = analysis.check_diamond(bg)
    cycle = analysis.find_lfair_cycle(bg)
    record = {
        "nodes": len(bg.nodes),
        "labels": len(bg.label_set),
        "sinks": all_sinks,
        "diamond": diamond,
        "label_fair_cycle": [bg.label(n) for n in cycle.cycle] if cycle else None,
    }
    lines = [
        f"belief graph: {len(bg.nodes)} nodes, labels 0..{bg.n_players}",
        f"sinks: {', '.join(all_sinks) if all_sinks else '(none)'}",
        f"diamond property: {str(diamond).lower()}",
        ("label-fair cycle: " + " -> ".join(record["label_fair_cycle"]))
        if cycle else "no label-fair cycle",
    ]
    if not diamond:
        record["diamond_counterexample"] = [bg.label(cex[0]), cex[1], cex[2]]
    _emit(args, record, lines)
    return EXIT_UNSAFE if cycle else EXIT_OK


def _cmd_dis_minor(args) -> int:
    from . import minors

    game = _load_game(args.game)
    script = minors.find_dis_minor(game, budget=args.budget)
    if script is None:
        _emit(args, {"found": False}, ["no disagreement-pattern minor"])
        return EXIT_OK
    record = {"found": True, "script": script.to_json()}
    lines = ["disagreement-pattern minor found; deletion script:"]
    lines += [f"  delete {step}" for step in script.steps] or ["  (already reduced)"]
    _emit(args, record, lines)
    return EXIT_UNSAFE


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gamedyn",
        description="Strategy-update dynamics on games played over graphs.")
    ap.add_argument("--output", choices=("text", "json", "dot"), default="text")
    ap.add_argument("--guard", type=int, default=PROFILE_GUARD,
                    help="maximum number of strategy profiles, belief nodes or "
                         "dynamics updates to build")
    ap.add_argument("--force", action="store_true",
                    help="override the guard")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dynamics", help="build a dynamics graph")
    p.add_argument("game")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("analyze", help="termination / fairness / equilibria")
    p.add_argument("game")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--check", choices=("termination", "fair-termination", "equilibria"),
                   required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("minor", help="apply a deletion script and verify simulation")
    p.add_argument("game")
    p.add_argument("--script", required=True)
    p.add_argument("--kind", choices=KINDS, default="p1")
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("dominated", help="check edge domination")
    p.add_argument("game")
    p.add_argument("--edges", nargs=2, required=True, metavar="U,V")
    p.set_defaults(func=_cmd_dominated)

    p = sub.add_parser("spp", help="routing-instance checks")
    p.add_argument("action", choices=("validate", "dw", "sdw", "safety"))
    p.add_argument("instance")
    p.add_argument("--mode", choices=("structural", "exact", "both"),
                   default="structural")
    p.add_argument("--complete-suffixes", action="store_true")
    p.set_defaults(func=_cmd_spp)

    p = sub.add_parser("belief", help="belief-graph analyses")
    p.add_argument("game")
    p.set_defaults(func=_cmd_belief)

    p = sub.add_parser("dis-minor", help="search for the disagreement pattern")
    p.add_argument("game")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.set_defaults(func=_cmd_dis_minor)
    return ap


def run_cli(argv=None) -> int:
    if os.environ.get("GAMEDYN_LOG"):
        _setup_logging(os.environ["GAMEDYN_LOG"])
    args = _parser().parse_args(argv)
    if args.force:
        args.guard = None  # the library's "no bound"
    try:
        return args.func(args)
    except SuffixClosureRepairNeeded as exc:
        print(f"error: {exc} (rerun with --complete-suffixes)", file=sys.stderr)
        return EXIT_ERROR
    except GameDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
