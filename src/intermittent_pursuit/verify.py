"""Verification suites: adversarial sweeps, exact expectations, a dense oracle.

Each suite returns one or more ``VerificationReport`` objects.  A report
fails when some trial violates its bound by more than the tolerance, or
when a structural expectation (captured vs. not, sensing counts, path
lengths) breaks.  Suites are deterministic given their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (CHECK_TOL, ROUND_TOL, TIME_EPS, GameConfig, PayoffSpec, Vec2, _count, _new,
                   _positive, _r_cap_below, before, exceeds, line_of_sight, perpendicular)
from .engine import Outcome, _play, exact_expected_payoff, simulate
from .strategies import (
    ArrivalSensingPursuer,
    EquilibriumEvader,
    RadialEvader,
    ScriptedEvader,
    ScriptedPursuer,
    SelfTriggeredPursuer,
    WaitingPursuer,
    _Flips,
    trial_rng,
)
from .value import (STAGE0_STOP, _chase_time, sense_count_arrival, sensing_delay, travel_budget,
                    value_bound)

__all__ = [
    "VerificationReport",
    "random_piecewise_evader",
    "pursuer_guarantee_check",
    "evader_guarantee_check",
    "jensen_claimed_floor",
    "jensen_expected_distance",
    "jensen_bound_check",
    "jensen_random_sweep",
    "capture_time_bound_check",
    "dense_oracle",
    "oracle_agreement_check",
    "SUITE_NAMES",
    "run_suite",
    "default_pursuer_config",
    "default_evader_config",
]

# Most constant-velocity legs of a random piecewise evader.
_MAX_LEGS = 5
# Samples the dense oracle scans at once, and most samples one agreement run may scan.
_ORACLE_BLOCK = 1 << 16
_MAX_ORACLE_SAMPLES = 10**10


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one verification suite; a trial fails past ``tolerance`` (``CHECK_TOL``).

    ``failures`` holds every failure found; the JSON lists the first twelve
    and then "... and N more".
    """

    tolerance = CHECK_TOL

    suite: str
    trials: int
    worst_violation: float
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        failures = list(self.failures)
        if len(failures) > 12:
            failures = failures[:12] + [f"... and {len(failures) - 12} more"]
        return {
            "suite": self.suite,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "worst_violation": self.worst_violation,
            "failures": failures,
            "passed": self.passed,
            "notes": list(self.notes),
        }


def _rotated(v: Vec2, angle: float) -> Vec2:
    c, s = math.cos(angle), math.sin(angle)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


def _initial_axes(config: GameConfig) -> tuple[Vec2, Vec2]:
    """The initial pursuer-to-evader bearing and its counterclockwise perpendicular."""
    bearing = line_of_sight(config.x_p0, config.x_e0)
    return bearing, perpendicular(bearing, 1)


def _endpoint_run(config: GameConfig, alpha1: float, alpha2: float,
                  axes: Optional[tuple[Vec2, Vec2]] = None) -> ScriptedPursuer:
    """One-speed run over the whole horizon, never sensing, to an offset within reach t_f.

    The offset is ``alpha1`` along the initial pursuer-to-evader bearing
    plus ``alpha2`` perpendicular to it; ``axes``, when given, is
    ``_initial_axes(config)``, so a grid of runs computes it once.
    """
    if config.initial_distance == 0.0:
        return ScriptedPursuer()  # caught at t = 0, before any query; no bearing
    (bx, by), (cx, cy) = axes or _initial_axes(config)
    alpha1, alpha2 = float(alpha1), float(alpha2)
    ox, oy = bx * alpha1 + cx * alpha2, by * alpha1 + cy * alpha2
    length = math.hypot(ox, oy)
    if length == 0.0:
        return ScriptedPursuer()
    t_f = config.t_f
    if exceeds(length, t_f):
        raise ValueError(f"endpoint offset {length} is beyond reach {t_f}")
    k, pace = 1.0 / length, min(length / t_f, 1.0)
    return ScriptedPursuer(((t_f, _new(Vec2, (ox * k * pace, oy * k * pace))),))


def _early_sense(config: GameConfig, sense_time: float) -> ScriptedPursuer:
    """The waiting pursuer with its first fix moved to ``sense_time`` (none if n = 0).

    It walks toward the free fix, stopping there if it arrives early.
    """
    _positive(sense_time, "sense_time")
    if config.n == 0:
        return ScriptedPursuer(then=WaitingPursuer())
    walk_end = min(config.initial_distance, float(sense_time))
    # a walk no longer than a rounding step is not taken, as in the waiting pursuer
    legs = ((walk_end, line_of_sight(config.x_p0, config.x_e0)),) if before(0.0, walk_end) else ()
    return ScriptedPursuer(legs, (float(sense_time),), WaitingPursuer())


def _first_leg(config: GameConfig, angle: float, gamma: float) -> ScriptedPursuer:
    """The waiting pursuer with its first walk turned by ``angle`` and slowed by ``gamma``.

    The schedule stays: walk until min(rho0, t_f), park, take the first fix
    (if n >= 1) at the prescribed instant.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    walk_end = min(config.initial_distance, config.t_f)
    legs = ()
    if gamma > 0.0 and before(0.0, walk_end):
        bearing = line_of_sight(config.x_p0, config.x_e0)
        legs = ((walk_end, _rotated(bearing, float(angle)) * float(gamma)),)
    if config.n == 0:
        return ScriptedPursuer(legs)  # no fix: the park lasts to the horizon
    return ScriptedPursuer(legs, (sensing_delay(config.nu, config.n, config.t_f),),
                           WaitingPursuer())


def random_piecewise_evader(config: GameConfig, rng: np.random.Generator) -> ScriptedEvader:
    """Random feasible piecewise-constant evader for adversarial sweeps."""
    n_legs = int(rng.integers(1, _MAX_LEGS + 1))
    ends = np.sort(rng.uniform(0.0, config.t_f, size=n_legs))
    legs = []
    last = 0.0
    for t_end in ends:
        t_end = float(t_end)
        if t_end - last < 1e-6 * max(1.0, config.t_f):
            continue
        speed = config.nu * float(rng.uniform(0.0, 1.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        legs.append((t_end, Vec2(speed * math.cos(angle), speed * math.sin(angle))))
        last = t_end
    return ScriptedEvader(legs)  # with no legs it stands still


def default_pursuer_config() -> GameConfig:
    """Wait-region scenario used when the pursuer suite gets no config."""
    return GameConfig(
        nu=0.7, r_cap=0.1,
        x_p0=Vec2(0.0, 0.0), x_e0=Vec2(1.0, 0.0),
        t_f=5.0, n=2,
        phi=PayoffSpec("hinge", 0.1),
    )


def default_evader_config() -> GameConfig:
    """Single-interval stop-case scenario used when the evader suite gets no config."""
    return replace(default_pursuer_config(), t_f=2.0, n=0)


def _with_scripted(config: GameConfig, entries: list, trials: int, seed: int):
    """The structured adversaries, then seeded random evaders up to ``trials`` in all.

    Each random evader is built only when reached, so a suite holds one at a time.
    """
    yield from entries
    for i in range(len(entries), trials):
        yield f"scripted_{i}", random_piecewise_evader(config, trial_rng(seed, i))


def pursuer_guarantee_check(
    config: Optional[GameConfig] = None,
    trials: int = 200,
    seed: int = 0,
) -> VerificationReport:
    """Check that the waiting pursuer's payoff never exceeds the closed-form bound.

    Runs the structured adversaries (radial flight, both fixed dodge
    orientations, the seeded randomizing evader) plus random piecewise
    evaders up to ``trials``.  Violation is payoff minus bound; the bound
    holds whether or not it is tight, so this check is valid in every
    region.
    """
    config = config or default_pursuer_config()
    bound = value_bound(config.initial_distance, config.t_f, config.n, config.phi, config.nu)
    draws = config.n + 1
    entries = _with_scripted(config, [
        ("radial", RadialEvader()),
        ("dodge_plus", EquilibriumEvader(_Flips(draws, tail=1))),
        ("dodge_minus", EquilibriumEvader(_Flips(draws, tail=-1))),
        ("dodge_seeded", EquilibriumEvader(_Flips.seeded(seed, 0, draws))),
    ], trials, seed)

    played, most, failures = 0, -math.inf, []
    for label, evader in entries:
        payoff = simulate(config, WaitingPursuer(), evader).outcome.payoff
        played += 1
        most = max(most, payoff)
        if payoff - bound.value > CHECK_TOL:
            failures.append(f"{label}: payoff {payoff:.12g} exceeds bound {bound.value:.12g}")
    worst = most - bound.value
    notes = [
        f"bound {bound.value:.12g} ({bound.case_tag}, tight={bound.is_tight})",
        f"worst payoff {worst + bound.value:.12g}",
    ]
    return VerificationReport("pursuer", played, worst, tuple(failures), tuple(notes))


def evader_guarantee_check(config: Optional[GameConfig] = None) -> VerificationReport:
    """Check the randomizing evader's expected payoff against pursuer deviations.

    Where the closed-form bound is tight, the evader's coin-flip strategy
    must earn at least the bound in expectation against every pursuer.
    Deviations tried, each a ``ScriptedPursuer``: straight runs to a 50 x 50
    grid of endpoints offset [0, t_f] along and [-t_f/2, t_f/2] across the
    initial bearing (those beyond the pursuer's reach are skipped), the
    waiting policy with its first walk leg turned by 4 angles at 3 speed
    fractions, 8 mistimed first sensings when n >= 1, and the prescribed
    waiting pursuer itself.
    In the no-budget stop case (``stage0_case2a``) the endpoint equal to the
    initial separation along the bearing must achieve the bound exactly.
    Expectations are exact sums over the orientation branches.
    """
    config = config or default_evader_config()
    rho0 = config.initial_distance
    bound = value_bound(rho0, config.t_f, config.n, config.phi, config.nu)
    notes = [f"bound {bound.value:.12g} ({bound.case_tag}, tight={bound.is_tight})"]
    if not bound.is_tight:
        notes.append("bound is not tight at this state; evader guarantee not claimed, skipping")
        return VerificationReport("evader", 0, 0.0, (), tuple(notes))

    deviations: list[tuple[str, object]] = []
    skipped = 0
    axes = _initial_axes(config) if rho0 > 0.0 else None
    alpha2_values = np.linspace(-config.t_f / 2.0, config.t_f / 2.0, 50).tolist()
    for a1 in np.linspace(0.0, config.t_f, 50).tolist():
        for a2 in alpha2_values:
            if exceeds(math.hypot(a1, a2), config.t_f):
                skipped += 1
                continue
            deviations.append((f"endpoint({a1:.6g},{a2:.6g})",
                               _endpoint_run(config, a1, a2, axes)))
    # A deviation whose first fix is not past a rounding step of t = 0 is left
    # out: it would sense at the start, where the log already holds the free fix.
    near_start = 0
    hold = sensing_delay(config.nu, config.n, config.t_f)
    first_legs = [(angle, gamma) for angle in (-0.5, -0.2, 0.2, 0.5) for gamma in (0.6, 0.8, 1.0)]
    if config.n >= 1 and not before(0.0, hold):
        near_start, first_legs = len(first_legs), []
    for angle, gamma in first_legs:
        deviations.append((f"first_leg(angle={angle:.3g},gamma={gamma:.3g})",
                           _first_leg(config, angle, gamma)))
    if config.n >= 1:
        # Try sensing at fractions of the prescribed first hold.
        for frac in np.linspace(0.15, 0.9, 8):
            t_s = float(frac) * hold
            if not before(0.0, t_s):
                near_start += 1
                continue
            deviations.append((f"early_sense({t_s:.6g})", _early_sense(config, t_s)))
    prescribed = len(deviations)
    deviations.append(("prescribed", WaitingPursuer()))

    # The straight run to the free fix, at the pace that arrives exactly at
    # the horizon, is played whenever it is in reach with no budget; in the
    # stop case it must tie the bound (at a capture state it need not).
    play_optimum = (config.n == 0 and config.t_f >= rho0 * (1.0 - ROUND_TOL)
                    and not exceeds(rho0, config.t_f))
    if play_optimum:
        deviations.append(("endpoint_opt", _endpoint_run(config, rho0, 0.0, axes)))

    expected = [exact_expected_payoff(config, pursuer) for _, pursuer in deviations]
    failures = [f"{label}: E[payoff] {e:.12g} below bound {bound.value:.12g}"
                for (label, _), e in zip(deviations, expected) if bound.value - e > CHECK_TOL]
    if (play_optimum and bound.case_tag == STAGE0_STOP
            and abs(expected[-1] - bound.value) > CHECK_TOL):
        failures.append(f"endpoint_opt: E[payoff] {expected[-1]:.12g} does not tie the bound "
                        f"{bound.value:.12g}")
    least = min(expected)
    notes.append(f"minimum E[payoff] {least:.12g} at {deviations[expected.index(least)][0]}")
    notes.append(f"prescribed pursuer E[payoff] - bound = {expected[prescribed] - bound.value:.3g}")
    if skipped:
        notes.append(f"{skipped} grid points beyond the pursuer's reach skipped")
    if near_start:
        notes.append(f"{near_start} deviations with a fix within a rounding step of t = 0 skipped")
    return VerificationReport("evader", len(deviations), bound.value - least, tuple(failures),
                              tuple(notes))


def jensen_expected_distance(rho: float, tau: float, nu: float,
                             alpha1: float, alpha2: float) -> float:
    """Expected final distance over the two dodge orientations.

    The evader starts ``rho`` ahead along the x axis and moves
    perpendicular with orientation +/-1 for time ``tau``; the pursuer ends
    displaced (alpha1, alpha2).  Both orientations are equally likely.
    """
    g_plus = math.hypot(rho - alpha1, nu * tau - alpha2)
    g_minus = math.hypot(rho - alpha1, nu * tau + alpha2)
    return 0.5 * (g_plus + g_minus)


def jensen_claimed_floor(rho: float, tau: float, nu: float,
                         alpha1: float, alpha2: float) -> float:
    """The claimed lower bound on the expected final distance."""
    return math.sqrt((rho - alpha1) ** 2 + (nu * tau) ** 2 + alpha2 ** 2)


def _jensen_scan(points):
    worst = -math.inf
    worst_point = None
    corrected_ok = True
    equality_ok = True
    failures = []
    for rho, tau, nu, a1, a2 in points:
        expected = jensen_expected_distance(rho, tau, nu, a1, a2)
        claimed = jensen_claimed_floor(rho, tau, nu, a1, a2)
        violation = claimed - expected
        if violation > worst:
            worst, worst_point = violation, (rho, tau, nu, a1, a2)
        if violation > CHECK_TOL:
            failures.append(
                f"(rho={rho:.6g}, tau={tau:.6g}, nu={nu:.6g}, a1={a1:.6g}, a2={a2:.6g}): "
                f"E[g] {expected:.12g} < claimed floor {claimed:.12g}"
            )
        if a2 == 0.0 and abs(violation) > ROUND_TOL * max(1.0, claimed):
            equality_ok = False
        # The alpha2-free floor is the same expression with alpha2 dropped;
        # it must hold with room to spare.
        if expected < math.hypot(rho - a1, nu * tau) - ROUND_TOL:
            corrected_ok = False
    return worst, worst_point, corrected_ok, equality_ok, failures


def jensen_bound_check() -> VerificationReport:
    """Test the claimed expected-distance floor pointwise on a deviation grid.

    The state is rho = 1, tau = 2, nu = 0.7, and the grid is 21 x 21
    pursuer displacements, alpha1 in [0, rho] by alpha2 in [-0.5, 0.5], all
    within the pursuer's reach tau.  The claim compares a two-point mean
    against the root-mean-square of the same two distances; a mean is never
    above its RMS and is strictly below whenever the branches differ, so
    every alpha2 != 0 point violates the claim.  This suite is therefore
    expected to fail; it exists to document the defect and to confirm the
    alpha2-free floor that replaces it.
    """
    rho, tau, nu = 1.0, 2.0, 0.7
    alpha2_values = np.linspace(-0.5, 0.5, 21).tolist()
    points = [(rho, tau, nu, a1, a2)
              for a1 in np.linspace(0.0, rho, 21).tolist() for a2 in alpha2_values]
    worst, worst_point, corrected_ok, equality_ok, failures = _jensen_scan(points)
    notes = [
        "claimed floor equals the RMS of the two branch distances; the mean of",
        "unequal branches is strictly below their RMS, so alpha2 != 0 breaks it",
        f"worst violation {worst:.12g} at {worst_point}",
        "alpha2 = 0 equality holds to 1e-12" if equality_ok
        else "alpha2 = 0 equality broken (unexpected)",
        "alpha2-free floor holds at every point" if corrected_ok
        else "alpha2-free floor also violated (unexpected)",
    ]
    return VerificationReport("jensen", len(points), worst, tuple(failures), tuple(notes))


def jensen_random_sweep(n: int = 1000, seed: int = 0) -> VerificationReport:
    """Randomized version of the pointwise floor test."""
    _count(n, "n")
    rng = trial_rng(seed, 1)
    points = []
    for _ in range(n):
        rho = float(rng.uniform(0.2, 3.0))
        tau = float(rng.uniform(0.1, 4.0))
        nu = float(rng.uniform(0.05, 0.95))
        a1 = float(rng.uniform(0.0, min(rho, tau)))
        a2_cap = math.sqrt(max(tau * tau - a1 * a1, 0.0))
        a2 = float(rng.uniform(-a2_cap, a2_cap))
        points.append((rho, tau, nu, a1, a2))
    worst, worst_point, corrected_ok, _, failures = _jensen_scan(points)
    notes = [
        f"worst violation {worst:.12g} at {worst_point}",
        "alpha2-free floor holds at every sampled point" if corrected_ok
        else "alpha2-free floor also violated (unexpected)",
    ]
    return VerificationReport("jensen_random", len(points), worst, tuple(failures), tuple(notes))


def capture_time_bound_check(
    config: Optional[GameConfig] = None,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Check the arrival-sensing pursuer's capture-time and budget guarantees.

    Reads only ``nu``, ``r_cap`` and the initial separation rho0 of
    ``config`` (default nu 0.7, r_cap 0.1, rho0 5) and plays the game on
    the +x axis.  Against every evader: capture happens, no later than
    (rho0 - r_cap)/(1 - nu), with at most the closed-form number of
    sensings, and the path is no longer than both the elapsed time and the
    closed-form travel budget.  Radial flight must attain the time bound
    exactly; a stationary evader must be caught after exactly rho0 - r_cap.
    """
    config = config or replace(default_pursuer_config(), x_e0=Vec2(5.0, 0.0))
    nu, r_cap, rho0 = config.nu, config.r_cap, config.initial_distance
    _r_cap_below(r_cap, rho0)
    time_bound = _chase_time(rho0, r_cap, nu)
    max_senses, max_travel = travel_budget(rho0, r_cap, nu)
    config = GameConfig(
        nu=nu, r_cap=r_cap,
        x_p0=Vec2(0.0, 0.0), x_e0=Vec2(rho0, 0.0),
        t_f=2.0 * time_bound, n=max_senses + 2,
        phi=PayoffSpec("hinge", r_cap), seed=seed,
    )
    entries = _with_scripted(config, [
        ("radial", RadialEvader()),
        ("stationary", ScriptedEvader(())),
    ], trials, seed)

    played, worst, failures = 0, -math.inf, []
    for label, evader in entries:
        played += 1
        result = simulate(config, ArrivalSensingPursuer(), evader)
        if not result.outcome.captured:
            failures.append(f"{label}: no capture within twice the bound")
            continue
        capture_time = result.outcome.capture_time
        senses = len(result.outcome.sensing_times)
        path = result.pursuer_trajectory.path_length()
        violation = capture_time - time_bound
        worst = max(worst, violation)
        if violation > CHECK_TOL:
            failures.append(f"{label}: capture at {capture_time:.12g} after bound {time_bound:.12g}")
        if senses > max_senses:
            failures.append(f"{label}: {senses} sensings exceed the budget bound {max_senses}")
        if path > capture_time + CHECK_TOL:
            failures.append(f"{label}: path {path:.12g} longer than travel time {capture_time:.12g}")
        if path > max_travel + CHECK_TOL:
            failures.append(f"{label}: path {path:.12g} beyond travel budget {max_travel:.12g}")
        if label == "radial" and abs(capture_time - time_bound) > CHECK_TOL * max(1.0, time_bound):
            failures.append(f"radial: capture {capture_time:.12g} does not attain {time_bound:.12g}")
        if label == "stationary" and abs(capture_time - (rho0 - r_cap)) > CHECK_TOL * max(1.0, rho0):
            failures.append(f"stationary: capture {capture_time:.12g} != {rho0 - r_cap:.12g}")
    notes = [f"time bound {time_bound:.12g}, sensing bound {max_senses}, "
             f"travel budget {max_travel:.12g}"]
    return VerificationReport("capture_time", played, worst, tuple(failures), tuple(notes))


def dense_oracle(config: GameConfig, pursuer, evader, dt: float = 1e-3) -> Outcome:
    """Brute-force cross-check of the engine by dense time sampling.

    Plays the game through the engine's own event loop (strategy queries,
    action checks, review scheduling) but detects capture only by scanning
    distances on the global grid j * dt (plus each event instant), never by
    root finding.  A capture the engine reports at time t is seen by the
    oracle no later than t + dt whenever the approach is transversal.  Each
    interval is scanned in blocks of ``_ORACLE_BLOCK`` grid samples, in
    order, so memory does not grow with 1 / dt.
    """
    _positive(dt, "dt")

    def first_contact(t, t_next, px, py, vpx, vpy, ex, ey, vex, vey, r_cap):
        j, j_end = math.floor(t / dt) + 1, math.floor(t_next / dt) + 1
        while True:
            stop = min(j + _ORACLE_BLOCK, j_end)
            sample_times = np.arange(j, stop, dtype=float) * dt
            if stop == j_end:  # the last block ends with the event instant
                sample_times = np.append(sample_times, t_next)
            sample_times = sample_times[sample_times > t + TIME_EPS]

            offsets = sample_times - t
            dx = (ex - px) + (vex - vpx) * offsets
            dy = (ey - py) + (vey - vpy) * offsets
            hit = np.nonzero(np.hypot(dx, dy) <= r_cap)[0]
            if hit.size:
                return float(sample_times[hit[0]])
            if stop == j_end:
                return None
            j = stop

    return _play(config, pursuer, evader, first_contact).outcome


def _radial_speed_at_capture(result) -> float:
    """d|separation|/dt just before capture, from the final segments."""
    p_seg = result.pursuer_trajectory.segments[-1]
    e_seg = result.evader_trajectory.segments[-1]
    d = e_seg.end_position - p_seg.end_position
    w = e_seg.velocity - p_seg.velocity
    return d.dot(w) / d.norm()


# The ranges of nu, r_cap and rho0 the scenarios draw, and of a capture
# scenario's horizon over its chase time; a miss scenario's is shorter.
_NU, _R_CAP, _RHO0, _SLACK = (0.35, 0.85), (0.05, 0.25), (1.0, 4.0), (1.2, 1.8)
_LONGEST_T_F = _SLACK[1] * _chase_time(_RHO0[1], _R_CAP[0], _NU[1])


def _oracle_scenario(seed: int, cand: int):
    """Deterministic random scenario for the agreement check."""
    rng = trial_rng(seed, 50_000 + cand)
    nu = float(rng.uniform(*_NU))
    r_cap = float(rng.uniform(*_R_CAP))
    rho0 = float(rng.uniform(*_RHO0))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    want_capture = bool(rng.uniform() < 0.7)
    if want_capture:
        t_f = _chase_time(rho0, r_cap, nu) * float(rng.uniform(*_SLACK))
        n = sense_count_arrival(rho0, r_cap, nu) + 2
    else:
        t_f = rho0 * float(rng.uniform(0.3, 0.6))
        n = int(rng.integers(0, 4))
    config = GameConfig(
        nu=nu, r_cap=r_cap,
        x_p0=Vec2(0.0, 0.0),
        x_e0=Vec2(rho0 * math.cos(angle), rho0 * math.sin(angle)),
        t_f=t_f, n=n, phi=PayoffSpec("hinge", r_cap), seed=seed,
    )
    u = float(rng.uniform())
    if u < 0.45:
        pursuer = ArrivalSensingPursuer()
    elif u < 0.75:
        pursuer = WaitingPursuer()
    else:
        pursuer = SelfTriggeredPursuer()
    u = float(rng.uniform())
    if u < 0.4:
        evader = RadialEvader(review_dt=0.07)
    elif u < 0.8:
        evader = random_piecewise_evader(config, rng)
    else:
        evader = EquilibriumEvader(_Flips.seeded(seed, cand, n + 1))
    return config, pursuer, evader


def oracle_agreement_check(n_scenarios: int = 50, dt: float = 1e-3,
                           seed: int = 0) -> VerificationReport:
    """Engine vs. dense oracle on randomized scenarios.

    Requires: same captured flag; capture times within [0, dt] of each
    other (the oracle lags); identical payoffs and sensing schedules on
    misses.  Grazing captures (shallow approach, or too close to an end of
    the horizon for the grid to see) are excluded by the generator, since a
    sampled scan cannot certify them either way.  A run that compares no
    capture fails.  A run whose oracle could scan more than
    ``_MAX_ORACLE_SAMPLES`` samples (n_scenarios times the longest horizon
    over dt) is refused before the first scenario.
    """
    _count(n_scenarios, "n_scenarios")
    _positive(dt, "dt")
    samples = n_scenarios * _LONGEST_T_F / dt
    if samples > _MAX_ORACLE_SAMPLES:
        raise ValueError(f"dt={dt:g} could scan about {samples:.3g} samples in {n_scenarios} "
                         f"scenarios, more than the {_MAX_ORACLE_SAMPLES:.3g} allowed")
    accepted = 0
    cand = 0
    captures = 0
    worst = 0.0
    failures = []
    while accepted < n_scenarios and cand < 80 * n_scenarios + 200:
        config, pursuer, evader = _oracle_scenario(seed, cand)
        cand += 1
        eng = simulate(config, pursuer, evader)
        if eng.outcome.captured:
            ct = eng.outcome.capture_time
            if ct > config.t_f - 2.0 * dt or ct < 2.0 * dt:
                continue  # too close to an end for the grid to resolve
            if _radial_speed_at_capture(eng) > -0.05:
                continue  # grazing approach; sampling cannot certify it
            captures += 1
        accepted += 1
        label = f"scenario_{cand - 1}"
        orc = dense_oracle(config, pursuer, evader, dt)
        if orc.captured != eng.outcome.captured:
            failures.append(f"{label}: engine captured={eng.outcome.captured}, "
                            f"oracle captured={orc.captured}")
            continue
        if eng.outcome.captured:
            delta = orc.capture_time - eng.outcome.capture_time
            worst = max(worst, delta - dt, -delta)
            if not -CHECK_TOL <= delta <= dt * (1.0 + config.nu) + CHECK_TOL:
                failures.append(f"{label}: capture-time gap {delta:.6g} outside the envelope")
        else:
            gap = abs(orc.payoff - eng.outcome.payoff)
            worst = max(worst, gap)
            if gap > CHECK_TOL:
                failures.append(f"{label}: payoff gap {gap:.6g}")
            if orc.sensing_times != eng.outcome.sensing_times:
                failures.append(f"{label}: sensing schedules differ")
    notes = [f"{accepted} scenarios ({captures} captures), dt={dt:g}"]
    if accepted < n_scenarios:
        failures.append(f"generator accepted only {accepted} of {n_scenarios} scenarios")
    if captures == 0:
        failures.append(f"0 captures compared: no capture scenario was accepted at dt={dt:g}")
    return VerificationReport("oracle", accepted, worst, tuple(failures), tuple(notes))


SUITE_NAMES = ("pursuer", "evader", "jensen", "capture_time", "oracle")


def run_suite(
    name: str,
    config: Optional[GameConfig] = None,
    trials: int = 1000,
    seed: int = 0,
    dt: float = 1e-3,
) -> list[VerificationReport]:
    """Run one named suite; ``all`` is handled by the caller.  Every suite needs trials >= 1."""
    _count(trials, "trials")
    if name == "pursuer":
        return [pursuer_guarantee_check(config, trials=trials, seed=seed)]
    if name == "evader":
        return [evader_guarantee_check(config)]
    if name == "jensen":
        return [jensen_bound_check(), jensen_random_sweep(trials, seed)]
    if name == "capture_time":
        return [capture_time_bound_check(config, trials=trials, seed=seed)]
    if name == "oracle":
        return [oracle_agreement_check(max(10, trials // 20), dt=dt, seed=seed)]
    raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES} or 'all'")
