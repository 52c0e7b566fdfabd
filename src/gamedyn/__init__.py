"""Strategy-update dynamics for multi-player games on finite graphs.

Build arenas with per-player preferences, derive one-step / concurrent /
best-reply update dynamics, decide (fair) termination, relate games through
simulations and minors, and check the safety of stable-paths routing
instances.

Each exported name, and each submodule read as an attribute (`gamedyn.spp`),
is imported when it is first used (PEP 562), so a program loads only the
modules it reads.  `from gamedyn import *` gives the exported names, not the
submodules.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "analysis": ("CycleWitness", "FairnessReport", "check_diamond", "equilibria", "find_cycle",
                 "find_fair_cycle", "find_lfair_cycle", "reachable_two_sinks", "sinks",
                 "terminates"),
    "dynamics": ("BeliefGraph", "BeliefNode", "DynamicsGraph", "build_belief_graph",
                 "build_dynamics"),
    "dot": ("export_dot",),
    "errors": ("GameDynError", "KINDS"),
    "game": ("Comparison", "FinitePlay", "Game", "LassoPlay", "Play", "PreferenceOrder",
             "canonicalize", "compare_plays", "parse_game", "positional_plays",
             "validate_game"),
    "minors": ("DeleteEdge", "DeleteVertex", "DeletionScript", "apply_script", "delete_edge",
               "delete_vertex", "find_dis_minor", "is_dis_pattern", "is_dominated",
               "script_is_dominant"),
    "relations": ("Relation", "is_bisimulation", "is_partial_simulation", "is_simulation",
                  "largest_simulation", "transitive_closure"),
    "spp": ("DisputeWheel", "OneTargetGame", "SafetyStatus", "SafetyVerdict",
            "extract_sdw_minor", "find_dispute_wheel", "find_sdw", "is_notg", "otg_from_game",
            "parse_spp", "safety_verdict", "validate_otg"),
    "strategy": ("StrategyProfile", "enumerate_profiles", "outcome"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules that are attributes of the package once first read (not cli:
# under `python -m gamedyn.cli` an earlier import of it makes runpy warn)
_SUBMODULES = frozenset(_EXPORTS) | {"graphs"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_import_module(f"{__name__}.{module}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
