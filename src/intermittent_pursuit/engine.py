"""Event-driven game simulator with exact piecewise-linear capture detection.

Both players move with piecewise-constant velocity between events.  Events
are: a strategy's self-scheduled review time, a sensing instant, capture, or
the horizon.  Between events the relative motion is linear, so the first
crossing of the capture radius is a root of a quadratic and is found in
closed form; there is no integration step and no step-size error.

Sensing is resolved before motion at each event: if the pursuer's action
asks to sense, the fix is recorded and the pursuer re-queried, so the
motion command issued for the interval always reflects the newest fix.  The
evader is queried after the pursuer, and sees the updated log.

The loop advances positions as float pairs and builds one ``Vec2`` per
player per event, for the strategies' info objects and the ``Segment``.

Every game starts from a branch point: the state of an event just before
the evader is queried (time, both positions, log, event count, the
pursuer's action after its sensing phase, both players' segments so far).
A fresh game starts from the initial one, at t = 0 with no event played.
Branch point k is the first event whose log holds more than k entries, the
event at which the coin-flip evader first reads ``thetas[k]``; a game with
different ``thetas[k:]`` matches the recorded one up to there, and exact
expectations resume it there without re-querying the pursuer.  That skip
is sound only because strategies are pure (see the strategies module).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .core import (ROUND_TOL, TIME_EPS, EnumerationCapError, GameConfig, Vec2, _count,
                   _fmt_cells, _positive, exceeds, write_csv)
from .strategies import (EquilibriumEvader, EvaderInfo, PursuerAction, PursuerInfo, SensingLog,
                         _Flips)

__all__ = [
    "Segment",
    "Trajectory",
    "Outcome",
    "SimulationResult",
    "detect_capture",
    "simulate",
    "exact_expected_payoff",
    "enumerate_branch_payoffs",
    "mc_expected_payoff",
    "sampled_expected_payoff",
    "write_trajectory_csv",
]

# Most prefix-tree leaves simulated, and branches expanded, is 2^_ENUMERATION_CAP.
_ENUMERATION_CAP = 20
# Most events one game may play.
_MAX_EVENTS = 200_000


class Segment(NamedTuple):
    """Constant-velocity motion on [t_start, t_end]."""

    t_start: float
    t_end: float
    x0: Vec2
    velocity: Vec2

    def position_at(self, t: float) -> Vec2:
        return self.x0 + self.velocity * (t - self.t_start)

    @property
    def end_position(self) -> Vec2:
        return self.position_at(self.t_end)


class Trajectory(NamedTuple):
    """Contiguous chain of segments for one player, starting at time 0.

    ``simulate`` chains the segments exactly (each starts at the previous
    one's end time and position) and gives each a positive duration; the
    chain is not re-checked here.  ``segments`` may be empty (a game that
    ends at t = 0); ``start_pos`` then carries the only known position.
    """

    start_pos: Vec2
    segments: tuple[Segment, ...]

    @property
    def end_position(self) -> Vec2:
        return self.segments[-1].end_position if self.segments else self.start_pos

    def path_length(self) -> float:
        return sum(s.velocity.norm() * (s.t_end - s.t_start) for s in self.segments)


class Outcome(NamedTuple):
    """Terminal result of one game; ``capture_time`` is None when the evader escapes."""

    capture_time: Optional[float]
    final_distance: float
    payoff: float
    sensing_times: tuple[float, ...]

    @property
    def captured(self) -> bool:
        return self.capture_time is not None

    def to_json_dict(self) -> dict:
        return {
            "captured": self.captured,
            "capture_time": self.capture_time,
            "final_distance": self.final_distance,
            "payoff": self.payoff,
            "sensing_times": list(self.sensing_times),
        }


class SimulationResult(NamedTuple):
    outcome: Outcome
    pursuer_trajectory: Trajectory
    evader_trajectory: Trajectory


def _capture_root(px: float, py: float, vpx: float, vpy: float, ex: float, ey: float,
                  vex: float, vey: float, r_cap: float, horizon: float) -> Optional[float]:
    """First s in [0, horizon] with |(e - p) + s (v_e - v_p)| <= r_cap, else None."""
    dx, dy = ex - px, ey - py
    wx, wy = vex - vpx, vey - vpy
    c = (dx * dx + dy * dy) - r_cap * r_cap
    if c <= 0.0:
        return 0.0
    a = wx * wx + wy * wy
    if a == 0.0:
        return None
    b = 2.0 * (dx * wx + dy * wy)
    if b >= 0.0:
        return None  # separation is nondecreasing on [0, inf)
    disc = b * b - 4.0 * a * c
    # Grazing contact: the discriminant of a true tangency can round to a
    # tiny negative value, so clamp within a relative tolerance.
    if disc < 0.0:
        if disc < -ROUND_TOL * max(b * b, abs(4.0 * a * c)):
            return None
        disc = 0.0
    s = 2.0 * c / (-b + math.sqrt(disc))  # smaller root, cancellation-free
    if s <= horizon + ROUND_TOL * max(1.0, horizon):
        return min(s, horizon)
    return None


def detect_capture(p_seg: Segment, e_seg: Segment, r_cap: float) -> Optional[float]:
    """Absolute capture time on the overlap of two segments, or None.

    The segments must overlap in time; capture at the overlap's right
    endpoint counts.
    """
    _positive(r_cap, "r_cap")
    t0 = max(p_seg.t_start, e_seg.t_start)
    t1 = min(p_seg.t_end, e_seg.t_end)
    if t1 < t0:
        raise ValueError(f"segments do not overlap: [{p_seg.t_start}, {p_seg.t_end}] "
                         f"vs [{e_seg.t_start}, {e_seg.t_end}]")
    p0, v_p = p_seg.position_at(t0), p_seg.velocity
    e0, v_e = e_seg.position_at(t0), e_seg.velocity
    s = _capture_root(p0.x, p0.y, v_p.x, v_p.y, e0.x, e0.y, v_e.x, v_e.y, r_cap, t1 - t0)
    return None if s is None else t0 + s


class _BranchPoint(NamedTuple):
    """An event's state just before the evader is queried; every game starts at one."""

    t: float
    x_p: Vec2
    x_e: Vec2
    log: SensingLog
    events: int
    p_action: Optional[PursuerAction]  # after the sensing phase; None at the initial point
    p_segments: tuple[Segment, ...]  # played before this event
    e_segments: tuple[Segment, ...]


def _velocity(action, cap: float, role: str) -> Vec2:
    """The action's velocity, after the one check both players' actions get.

    Both players command a ``Vec2`` velocity whose speed must not exceed
    their cap (1 for the pursuer, nu for the evader); NaN and infinity fail.
    """
    review_at = action.review_at
    if review_at is not None and not (isinstance(review_at, (int, float))
                                      and math.isfinite(review_at)):
        raise ValueError(f"review_at must be a finite time or None, got {review_at!r}")
    velocity = action.velocity
    if not isinstance(velocity, Vec2):
        raise ValueError(f"{role} velocity must be a Vec2, got {velocity!r}")
    if exceeds(velocity.norm(), cap):
        raise ValueError(f"{role} speed {velocity.norm()} exceeds the cap {cap}")
    return velocity


def _play(config: GameConfig, pursuer, evader, first_contact,
          start: Optional[_BranchPoint] = None, points: Optional[list] = None) -> SimulationResult:
    """The event loop that ``simulate`` and the dense oracle share.

    Positions advance as floats.  ``first_contact(t, t_next, px, py, vpx,
    vpy, ex, ey, vex, vey)`` returns the absolute time of the first capture
    on [t, t_next] under the given constant velocities, or None; it is the
    only step in which the callers differ.  A ``review_dt`` whose t_f /
    review_dt exceeds ``_MAX_EVENTS`` is rejected before the first event.

    The game starts from ``start``, by default the initial branch point;
    capture at t = 0 is checked only there.  Any other start is a branch
    point of an earlier game of this config and pursuer: its event keeps
    its count and pursuer action.  ``points``, when given, gets branch point
    k appended at the first event whose log holds more than k entries; a
    resumed game's list must already hold the points up to its start.
    """
    max_events = _MAX_EVENTS  # read once: the loop checks it every event
    for review_dt in (getattr(pursuer, "review_dt", None), getattr(evader, "review_dt", None)):
        if review_dt and config.t_f / review_dt > max_events:
            raise RuntimeError(f"event budget {max_events} is below the estimated "
                               f"{config.t_f / review_dt:.6g} events of review_dt={review_dt}")

    continuous = bool(getattr(pursuer, "continuous_observation", False))
    if start is None:
        start = _BranchPoint(0.0, config.x_p0, config.x_e0, SensingLog.initial(config), 0, None,
                             (), ())
    t, x_p, x_e, log, events, p_action, p_segments, e_segments = start
    p_segments, e_segments = list(p_segments), list(e_segments)
    capture_time = None
    if events == 0 and math.hypot(x_p.x - x_e.x, x_p.y - x_e.y) <= config.r_cap:
        capture_time = 0.0
    px, py, ex, ey = x_p.x, x_p.y, x_e.x, x_e.y

    while capture_time is None and t < config.t_f - TIME_EPS:
        if p_action is None:  # a resumed event already has its pursuer action
            events += 1
            if events > max_events:
                raise RuntimeError(f"event budget {max_events} exhausted at t={t}")

            # Sensing phase: re-query until the pursuer stops asking.  A second
            # request at the same instant is rejected by the log itself.
            live = x_e if continuous else None
            p_action = pursuer.act(PursuerInfo(t, x_p, log, config, live))
            while p_action.sense_now:
                log = log.record(t, x_e, x_p)
                p_action = pursuer.act(PursuerInfo(t, x_p, log, config, live))
            if points is not None and len(points) < len(log.times):
                point = _BranchPoint(t, x_p, x_e, log, events, p_action,
                                     tuple(p_segments), tuple(e_segments))
                points += [point] * (len(log.times) - len(points))
        v_p = _velocity(p_action, 1.0, "pursuer")

        e_info = EvaderInfo(t, x_e, x_p, log, config)
        e_action = evader.act(e_info)
        v_e = _velocity(e_action, config.nu, "evader")

        t_next = config.t_f
        for review in (p_action.review_at, e_action.review_at):
            if review is not None and t + TIME_EPS < review < t_next:
                t_next = review
        p_action = None

        vpx, vpy, vex, vey = v_p.x, v_p.y, v_e.x, v_e.y
        t_hit = first_contact(t, t_next, px, py, vpx, vpy, ex, ey, vex, vey)
        if t_hit is not None:
            t_next = capture_time = t_hit
        if t_next > t:
            p_segments.append(Segment(t, t_next, x_p, v_p))
            e_segments.append(Segment(t, t_next, x_e, v_e))
            dt = t_next - t
            px, py = px + vpx * dt, py + vpy * dt
            ex, ey = ex + vex * dt, ey + vey * dt
            x_p, x_e = Vec2(px, py), Vec2(ex, ey)
        t = t_next

    final_distance = math.hypot(px - ex, py - ey)
    outcome = Outcome(
        capture_time=capture_time,
        final_distance=final_distance,
        payoff=0.0 if capture_time is not None else config.phi.evaluate(final_distance),
        sensing_times=log.times[1:],
    )
    return SimulationResult(outcome, Trajectory(config.x_p0, tuple(p_segments)),
                            Trajectory(config.x_e0, tuple(e_segments)))


def simulate(config: GameConfig, pursuer, evader, *, _fork=None) -> SimulationResult:
    """Play one game to capture or to the horizon.

    ``pursuer`` and ``evader`` are strategy objects (see strategies module).
    Raises BudgetViolationError if the pursuer senses beyond its budget,
    ValueError on a malformed action (a velocity that is not a ``Vec2``, or
    whose speed is non-finite or above the player's cap) and RuntimeError
    past the event budget of 200 000 events.

    ``_fork`` is the hook through which ``_leaves`` forks games: a
    ``(start, points)`` pair passed to the event loop, where ``start`` is
    None or a branch point of an earlier game, and ``points`` is the list
    that gets this game's branch points.  A resumed game returns a result
    equal (==) to the one a fresh game gives, as long as the pursuer is pure.
    """
    def first_contact(t, t_next, px, py, vpx, vpy, ex, ey, vex, vey):
        s = _capture_root(px, py, vpx, vpy, ex, ey, vex, vey, config.r_cap, t_next - t)
        return None if s is None else t + s

    return _play(config, pursuer, evader, first_contact, *(_fork or ()))


def _leaves(config: GameConfig, pursuer) -> list[tuple[float, int]]:
    """``(payoff, depth)`` of each theta-prefix-tree leaf, depth first, +1 first.

    The evader reads ``thetas[k]`` first at branch point k, so a game with d
    branch points (one more than its fixes, or none if it played no event)
    depends on ``thetas[:d]`` alone.  Each prefix is played with a +1 tail
    (its +1 child replays the same flips) and branches while shorter than
    min(d, n + 1); a leaf at depth L has weight 2^-L.  So a game with no
    event (capture at t = 0, or no time left) is a single leaf.

    The root game starts fresh.  The -1 child at depth L matches its
    parent's game until the evader first reads ``thetas[L-1]``, at the
    parent's branch point L - 1, so it resumes there, reusing the parent's
    earlier segments and skipping that event's pursuer queries; that takes
    a pure pursuer.  Every played leaf is one ``simulate`` call.  Raises
    EnumerationCapError rather than simulate a leaf past the cap.
    """
    draws = config.n + 1
    played, leaves = 0, []
    # (prefix, its game's payoff and branch points once played, else the fork that plays it)
    stack: list = [((), None, (None, []))]
    while stack:
        prefix, game, fork = stack.pop()
        depth = len(prefix)
        if game is None:
            if played == 2 ** _ENUMERATION_CAP:
                raise EnumerationCapError(f"{played} leaves simulated and the prefix tree "
                                          f"has more; the cap is 2^{_ENUMERATION_CAP}")
            played += 1
            result = simulate(config, pursuer, EquilibriumEvader(_Flips(draws, prefix)), _fork=fork)
            game = result.outcome.payoff, fork[1]
        payoff, points = game
        if depth >= min(len(points), draws):
            leaves.append((payoff, depth))
        else:
            # the child shares the branch points up to the one it resumes from
            point = points[depth]
            fork = point, points[:len(point.log.times)]
            stack += [(prefix + (-1,), None, fork), (prefix + (1,), game, None)]
    return leaves


def enumerate_branch_payoffs(config: GameConfig, pursuer) -> tuple[float, ...]:
    """Payoff of every orientation branch, in lexicographic (+1 first) order.

    With budget n the evader draws n + 1 orientations, so there are 2^(n+1)
    equally likely branches: the expansion of the prefix-tree leaves, a leaf
    at depth L filling 2^(n+1-L) slots.  Raises EnumerationCapError when
    n + 1 exceeds 20.
    """
    draws = config.n + 1
    if draws > _ENUMERATION_CAP:
        raise EnumerationCapError(
            f"2^{draws} branches exceed the enumeration cap 2^{_ENUMERATION_CAP}"
        )
    payoffs: list[float] = []
    for payoff, depth in _leaves(config, pursuer):
        payoffs.extend([payoff] * 2 ** (draws - depth))
    return tuple(payoffs)


def exact_expected_payoff(config: GameConfig, pursuer) -> float:
    """Expected payoff against the orientation-randomizing evader, exactly.

    The fsum of the leaf payoffs scaled by 2^-depth: the scaling is exact and
    fsum rounds once, so this equals the mean over all 2^(n+1) branches.
    Raises EnumerationCapError past 2^20 simulated leaves.
    """
    return math.fsum(math.ldexp(payoff, -depth) for payoff, depth in _leaves(config, pursuer))


def mc_expected_payoff(config: GameConfig, pursuer, n_draws: int, seed: int) -> float:
    """Monte Carlo estimate: a multinomial over the enumerated branches.

    A cross-check that no package code calls, kept for the benchmark's tracer.
    """
    _count(n_draws, "n_draws")
    payoffs = enumerate_branch_payoffs(config, pursuer)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    counts = rng.multinomial(n_draws, [1.0 / len(payoffs)] * len(payoffs))
    return float(np.dot(counts, payoffs) / n_draws)


def sampled_expected_payoff(config: GameConfig, pursuer, n_draws: int, seed: int) -> float:
    """Plain Monte Carlo, one simulated game per draw.

    A cross-check that no package code calls, kept for the benchmark's tracer.
    """
    _count(n_draws, "n_draws")
    payoffs = np.empty(n_draws)
    for draw in range(n_draws):
        evader = EquilibriumEvader(_Flips.seeded(seed, draw, config.n + 1))
        payoffs[draw] = simulate(config, pursuer, evader).outcome.payoff
    return float(payoffs.mean())


def write_trajectory_csv(path, result: SimulationResult) -> None:
    """Write both players' motion segments as CSV through ``core.write_csv``.

    Columns: player, t_start, t_end, x0, y0, vx, vy.  One row per segment,
    pursuer rows first, every number through ``core._fmt_cells``; each
    t_end recurs as the next t_start and both players share every time, so
    most time cells are formatted once.
    """
    players, numbers = [], []
    for player, trajectory in (("pursuer", result.pursuer_trajectory),
                               ("evader", result.evader_trajectory)):
        for t0, t1, x0, v in trajectory.segments:
            players.append(player)
            numbers += (t0, t1, x0.x, x0.y, v.x, v.y)
    cells = _fmt_cells(numbers)
    rows = zip(players, *(cells[k::6] for k in range(6)))
    write_csv(path, ("player", "t_start", "t_end", "x0", "y0", "vx", "vy"), rows)
