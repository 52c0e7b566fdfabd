"""Seeded property suites over random games and routing instances.

Each suite returns a list of violation descriptions (empty = clean) so it
can back both the pytest acceptance checks and the standalone sweep script.

Three of the claimed equivalences are falsified by concrete instances:
their suites are kept verbatim in FALSIFIED_SUITES so the counterexamples
stay visible, and each has a companion suite for the corrected statement.
GATED_SUITES holds the statements that hold, which must report no
violations.  A corrected suite checks the direction that holds on every
seed and the converse under a named hypothesis; it also reports a
violation when that hypothesis held on no seed, so the converse cannot
pass vacuously.
"""

from gamedyn import (
    SafetyStatus,
    apply_script,
    build_dynamics,
    equilibria,
    find_dis_minor,
    find_dispute_wheel,
    find_fair_cycle,
    find_sdw,
    largest_simulation,
    safety_verdict,
    terminates,
)

from .generators import random_game, random_notg, random_script


def _players(game):
    return tuple(range(1, game.n_players + 1))


def _fair(game, kind):
    dg = build_dynamics(game, kind, guard=None)
    return find_fair_cycle(dg, players=_players(game)).fair


def _exercised(violations, count, hypothesis):
    if not count:
        violations.append(f"converse never exercised: no seed where {hypothesis}")
    return violations


def suite_minor_simulation(seeds):
    """Deleting edges and vertices never adds dynamics behaviour: the
    original game's update graph simulates the minor's, for one-step
    (acyclic arenas), unilateral, and concurrent updating."""
    violations = []
    for seed in seeds:
        for kind, acyclic in (("1", True), ("p1", False), ("pc", False)):
            game = random_game(seed, acyclic=acyclic)
            script = random_script(seed, game)
            if script is None:
                continue
            minor = apply_script(game, script)
            big = build_dynamics(game, kind, guard=None)
            small = build_dynamics(minor, kind, guard=None)
            _, full = largest_simulation(small, big)
            if not full:
                violations.append(f"seed {seed} kind {kind}: no full simulation")
    return violations


def suite_dominant_fair_equivalence(seeds):
    """Claimed equivalence: removing only dominated edges (and squeezable
    vertices) preserves fair termination of the best-reply dynamics, in
    both directions.

    The minor-to-original direction holds; the converse is falsified when
    a player owns several vertices: a cycle can park one vertex on the
    dominated edge forever while the player stays fair by switching at its
    other vertices (see the pinned counterexample in test_minors).  Kept
    verbatim so the failures stay visible; suite_dominant_fair_transfer
    sweeps the corrected statement."""
    violations = []
    for seed in seeds:
        game = random_game(seed)
        script = random_script(seed, game, dominant=True)
        if script is None or not script.steps:
            continue
        minor = apply_script(game, script)
        for kind in ("bp1", "bpc"):
            if _fair(game, kind) != _fair(minor, kind):
                violations.append(f"seed {seed} kind {kind}: fairness flipped")
    return violations


def suite_dominant_fair_transfer(seeds):
    """Corrected dominant-minor statement for best-reply dynamics: a fair
    cycle of the dominant minor lifts to the original game, and, when
    every player owns at most one vertex, a fair cycle of the original
    game survives the deletions."""
    violations, exercised = [], 0
    for seed in seeds:
        game = random_game(seed)
        script = random_script(seed, game, dominant=True)
        if script is None or not script.steps:
            continue
        minor = apply_script(game, script)
        one_vertex_each = len(set(game.owner.values())) == len(game.owner)
        exercised += one_vertex_each
        for kind in ("bp1", "bpc"):
            big, small = _fair(game, kind), _fair(minor, kind)
            if small and not big:
                violations.append(f"seed {seed} kind {kind}: fair cycle in the "
                                  f"minor only")
            if one_vertex_each and big and not small:
                violations.append(f"seed {seed} kind {kind}: one vertex per "
                                  f"player, yet the minor lost the fair cycle")
    return _exercised(violations, exercised, "every player owns at most one vertex")


def suite_unique_equilibrium(seeds):
    """When best-reply concurrent updating fairly terminates on a routing
    instance, the stable state is unique."""
    violations = []
    for seed in seeds:
        otg = random_notg(seed)
        dg = build_dynamics(otg.game, "bpc", guard=None)
        if find_fair_cycle(dg, players=_players(otg.game)).fair:
            continue
        count = len(equilibria(dg))
        if count != 1:
            violations.append(f"seed {seed}: {count} equilibria")
    return violations


def suite_no_wheel_converges(seeds):
    """An instance without any dispute wheel fairly terminates under
    best-reply concurrent updating."""
    violations = []
    for seed in seeds:
        otg = random_notg(seed)
        if find_dispute_wheel(otg) is not None:
            continue
        if _fair(otg.game, "bpc"):
            violations.append(f"seed {seed}: no wheel, yet a fair cycle")
    return violations


def suite_strong_wheel_blocks_termination(seeds):
    """A strong dispute wheel forces a cycle of the concurrent dynamics."""
    violations = []
    for seed in seeds:
        otg = random_notg(seed)
        if find_sdw(otg) is None:
            continue
        if terminates(build_dynamics(otg.game, "pc", guard=None)):
            violations.append(f"seed {seed}: strong wheel but PC terminates")
    return violations


def suite_strong_wheel_iff_fair_cycle(seeds):
    """Claimed equivalence on next-hop instances: a strong dispute wheel
    exists iff the concurrent dynamics has a fair cycle.

    The forward direction (fair cycle => wheel) holds; the converse is
    falsified by concrete instances where the wheel's oscillation starves a
    player who can always switch away (see the pinned counterexample in
    test_spp).  Kept verbatim so the failures stay visible;
    suite_strong_wheel_fair_cycle sweeps the corrected statement."""
    violations = []
    for seed in seeds:
        otg = random_notg(seed)
        has_sdw = find_sdw(otg) is not None
        fair = _fair(otg.game, "pc")
        if has_sdw != fair:
            violations.append(f"seed {seed}: sdw={has_sdw}, fair-cycle={fair}")
    return violations


def suite_dis_minor_iff_fair_cycle(seeds):
    """Claimed equivalence on next-hop instances: the two-player
    disagreement pattern embeds as a minor iff the concurrent dynamics has
    a fair cycle.  Shares the failing converse direction with the strong
    wheel equivalence above (the minor search goes through the wheel).
    Kept verbatim so the failures stay visible; suite_dis_minor_fair_cycle
    sweeps the corrected statement."""
    violations = []
    for seed in seeds:
        otg = random_notg(seed)
        has_minor = find_dis_minor(otg.game) is not None
        fair = _fair(otg.game, "pc")
        if has_minor != fair:
            violations.append(f"seed {seed}: minor={has_minor}, fair-cycle={fair}")
    return violations


def _pattern_vs_fair_cycle(seeds, pattern, find):
    """Fair concurrent cycle => pattern, on every seed; pattern with an
    UNSAFE_SDW structural verdict => fair concurrent cycle."""
    violations, exercised = [], 0
    for seed in seeds:
        otg = random_notg(seed)
        found = find(otg) is not None
        fair = _fair(otg.game, "pc")
        if fair and not found:
            violations.append(f"seed {seed}: fair cycle without a {pattern}")
        if found and (safety_verdict(otg, "structural", guard=None).status
                      is SafetyStatus.UNSAFE_SDW):
            exercised += 1
            if not fair:
                violations.append(f"seed {seed}: {pattern} and UNSAFE_SDW, "
                                  f"yet no fair cycle")
    return _exercised(violations, exercised,
                      f"a {pattern} comes with an UNSAFE_SDW verdict")


def suite_strong_wheel_fair_cycle(seeds):
    """Corrected strong-wheel statement on next-hop instances: a fair
    concurrent cycle implies a strong dispute wheel, and a strong wheel
    whose oscillation survives fair best replies (structural verdict
    UNSAFE_SDW) implies a fair concurrent cycle."""
    return _pattern_vs_fair_cycle(seeds, "strong wheel", find_sdw)


def suite_dis_minor_fair_cycle(seeds):
    """Corrected disagreement-minor statement on next-hop instances: a fair
    concurrent cycle implies the disagreement minor, and the minor together
    with a structural verdict of UNSAFE_SDW implies a fair concurrent
    cycle."""
    return _pattern_vs_fair_cycle(seeds, "disagreement minor",
                                  lambda otg: find_dis_minor(otg.game))


# The statements that hold: each must report no violations.
GATED_SUITES = (
    ("minor-simulation", suite_minor_simulation),
    ("dominant-fair-transfer", suite_dominant_fair_transfer),
    ("unique-equilibrium", suite_unique_equilibrium),
    ("no-wheel-converges", suite_no_wheel_converges),
    ("strong-wheel-blocks-termination", suite_strong_wheel_blocks_termination),
    ("strong-wheel-fair-cycle", suite_strong_wheel_fair_cycle),
    ("dis-minor-fair-cycle", suite_dis_minor_fair_cycle),
)

# The claimed equivalences, verbatim; concrete instances falsify each.
FALSIFIED_SUITES = (
    ("dominant-fair-equivalence", suite_dominant_fair_equivalence),
    ("strong-wheel-iff-fair-cycle", suite_strong_wheel_iff_fair_cycle),
    ("dis-minor-iff-fair-cycle", suite_dis_minor_iff_fair_cycle),
)
