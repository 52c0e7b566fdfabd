"""Strategy-update dynamics for multi-player games on finite graphs.

Build arenas with per-player preferences, derive one-step / concurrent /
best-reply update dynamics, decide (fair) termination, relate games through
simulations and minors, and check the safety of stable-paths routing
instances.
"""

from .analysis import (
    CycleWitness,
    FairnessReport,
    check_diamond,
    equilibria,
    find_cycle,
    find_fair_cycle,
    find_lfair_cycle,
    reachable_two_sinks,
    sinks,
    terminates,
)
from .dynamics import (
    BeliefGraph,
    BeliefNode,
    DynamicsGraph,
    KINDS,
    build_belief_graph,
    build_dynamics,
)
from .dot import export_dot
from .errors import GameDynError
from .game import (
    Comparison,
    FinitePlay,
    Game,
    LassoPlay,
    Play,
    PreferenceOrder,
    canonicalize,
    compare_plays,
    parse_game,
    positional_plays,
    validate_game,
)
from .minors import (
    DeleteEdge,
    DeleteVertex,
    DeletionScript,
    apply_script,
    delete_edge,
    delete_vertex,
    find_dis_minor,
    is_dis_pattern,
    is_dominated,
    script_is_dominant,
)
from .relations import (
    Relation,
    is_bisimulation,
    is_partial_simulation,
    is_simulation,
    largest_simulation,
    transitive_closure,
)
from .spp import (
    DisputeWheel,
    OneTargetGame,
    SafetyStatus,
    SafetyVerdict,
    extract_sdw_minor,
    find_dispute_wheel,
    find_sdw,
    is_notg,
    otg_from_game,
    parse_spp,
    safety_verdict,
    validate_otg,
)
from .strategy import StrategyProfile, enumerate_profiles, outcome

__all__ = [name for name in dir() if not name.startswith("_")]
