"""Graphviz DOT export for arenas, dynamics graphs and belief graphs."""

from __future__ import annotations

from .dynamics import BeliefGraph, DynamicsGraph
from .game import Game


def _quote(s: str) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj) -> str:
    if isinstance(obj, Game):
        return _game_dot(obj)
    if isinstance(obj, DynamicsGraph):
        return _dynamics_dot(obj)
    if isinstance(obj, BeliefGraph):
        return _belief_dot(obj)
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")


def _game_dot(game: Game) -> str:
    lines = ["digraph arena {"]
    terms = game.terminals
    for v in sorted(game.vertices):
        if v in terms:
            lines.append(f"  {_quote(v)} [shape=doublecircle];")
        else:
            lines.append(f"  {_quote(v)} [label={_quote(f'{v} (p{game.owner[v]})')}];")
    for u, v in sorted(game.edges):
        label = game.edge_labels.get((u, v))
        attr = f" [label={_quote(label)}]" if label else ""
        lines.append(f"  {_quote(u)} -> {_quote(v)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dynamics_dot(dg: DynamicsGraph) -> str:
    lines = [f"digraph dynamics_{dg.kind} {{"]
    names = dg.names
    for name in sorted(names):
        lines.append(f"  {_quote(name)};")
    edges = ((names[i], names[j], c) for i, (js, cs) in enumerate(zip(dg.succ, dg.changed))
             for j, c in zip(js, cs))
    for u, v, changed in sorted(edges, key=lambda e: e[:2]):
        who = ",".join(str(i) for i in sorted(changed))
        lines.append(f"  {_quote(u)} -> {_quote(v)} [label={_quote(who)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _belief_dot(bg: BeliefGraph) -> str:
    lines = ["digraph beliefs {"]
    names = bg.names
    order = sorted(range(len(names)), key=names.__getitem__)
    for i in order:
        shape = " [shape=box]" if i in bg.v0 else ""
        lines.append(f"  {_quote(names[i])}{shape};")
    for i in order:
        for a, targets in enumerate(bg.delta):
            lines.append(f"  {_quote(names[i])} -> {_quote(names[targets[i]])} [label={a}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
