"""Pursuer and evader policies as pure decision functions over information sets.

A strategy is any object with ``act(info) -> action``.  The engine queries
strategies only at event times.  Both action types hold a constant
``velocity`` (a ``Vec2``; the default, zero, parks) plus an optional
absolute ``review_at`` time at which the strategy wants to be queried
again; a ``PursuerAction`` also carries ``sense_now``.  The engine checks
every action with one rule: the speed must not exceed the player's cap, 1
for the pursuer and nu for the evader, up to ``ROUND_TOL`` (NaN and
infinity fail).  Strategies must be pure functions of the info object:
re-querying with the same info must return the same action, which is what
makes event-driven simulation, replay, and exact enumeration sound (the
enumeration resumes a game mid-way with a pursuer action an earlier game
got from the same info).  The evader suite's pursuer deviations are data:
each is a pure ``ScriptedPursuer``, which has no config name.

Information hygiene: the pursuer sees its own position and the sensing log
(evader fixes at sensing instants only); the evader additionally sees the
pursuer's position continuously.  A pursuer strategy gets the live evader
position only if it declares ``continuous_observation = True``, which is
reserved for the full-information baseline.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (CHECK_TOL, BudgetViolationError, GameConfig, Vec2, _bearing, _index, _new,
                   _number, _positive, _seed, _vec_from, before, line_of_sight)
from .value import holds_at_fix, sensing_delay, trigger_coefficient

__all__ = [
    "SensingLog",
    "PursuerInfo",
    "EvaderInfo",
    "PursuerAction",
    "EvaderAction",
    "ContinuousPursuer",
    "ArrivalSensingPursuer",
    "WaitingPursuer",
    "SelfTriggeredPursuer",
    "RadialEvader",
    "EquilibriumEvader",
    "ScriptedEvader",
    "ScriptedPursuer",
    "trial_rng",
    "theta_stream",
    "PURSUER_NAMES",
    "EVADER_NAMES",
    "build_pursuer",
    "build_evader",
]

class _LogColumns(NamedTuple):
    times: tuple[float, ...]
    sensed_positions: tuple[Vec2, ...]
    pursuer_positions: tuple[Vec2, ...]
    budget_remaining: int


class SensingLog(_LogColumns):
    """History of sensor fixes, shared by both information sets.

    ``times[0]`` is always 0: the initial evader position is free.  Each
    later entry cost one unit of budget.  Pursuer positions at the fix
    instants ride along because both players can reconstruct them anyway
    (the pursuer knows its own path; the evader watches the pursuer), and
    the anchor separation they encode is what the strategies steer by.

    A tuple.  Direct construction checks the whole log; ``initial`` and
    ``record`` build valid logs and check only what a new entry can break.
    """

    __slots__ = ()

    def __new__(cls, times, sensed_positions, pursuer_positions, budget_remaining):
        if not (len(times) == len(sensed_positions) == len(pursuer_positions)):
            raise ValueError("log columns must have equal length")
        if not times or times[0] != 0.0:
            raise ValueError("log must start with the free fix at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("fix times must be strictly increasing")
        _index(budget_remaining, "budget_remaining")
        return tuple.__new__(cls, (times, sensed_positions, pursuer_positions, budget_remaining))

    @classmethod
    def initial(cls, config: GameConfig) -> "SensingLog":
        return tuple.__new__(cls, ((0.0,), (config.x_e0,), (config.x_p0,), config.n))

    def record(self, t: float, evader: Vec2, pursuer: Vec2) -> "SensingLog":
        """New log with one more fix and one less budget unit."""
        times, sensed, pursuers, budget = self
        if budget <= 0:
            raise BudgetViolationError(f"sensing requested at t={t} with no budget left")
        if t <= times[-1]:
            raise ValueError("fix times must be strictly increasing")
        return tuple.__new__(SensingLog, (times + (t,), sensed + (evader,),
                                          pursuers + (pursuer,), budget - 1))

    def anchor(self) -> tuple[float, Vec2, Vec2, float]:
        """Latest fix as (time, evader position, pursuer position, separation)."""
        evader = self.sensed_positions[-1]
        pursuer = self.pursuer_positions[-1]
        return self.times[-1], evader, pursuer, pursuer.dist(evader)


class PursuerInfo(NamedTuple):
    time: float
    own: Vec2
    log: SensingLog
    config: GameConfig
    evader: Optional[Vec2] = None  # live position; baseline mode only


class EvaderInfo(NamedTuple):
    time: float
    own: Vec2
    pursuer: Vec2
    log: SensingLog
    config: GameConfig


_STILL = Vec2(0.0, 0.0)


class PursuerAction(NamedTuple):
    """Constant ``velocity`` of speed at most 1; the default parks.

    ``sense_now`` asks the engine to spend one budget unit immediately and
    re-query.  ``review_at`` is an absolute time; None means no
    self-scheduled event.
    """

    velocity: Vec2 = _STILL
    sense_now: bool = False
    review_at: Optional[float] = None


class EvaderAction(NamedTuple):
    """Constant ``velocity`` of speed at most nu; the default stands still."""

    velocity: Vec2 = _STILL
    review_at: Optional[float] = None


class ContinuousPursuer:
    """Full-information baseline: drive at the evader along the line of sight.

    Reproduces the continuous-sensing capture time (rho0 - r_cap)/(1 - nu).
    Queried on a short review interval so the closed-loop heading stays
    fresh; whenever pursuer, evader and heading are collinear the replanned
    heading is unchanged and the motion is exact.
    """

    continuous_observation = True

    def __init__(self, review_dt: float = 0.01):
        self.review_dt = _positive(_number(review_dt, "review_dt"), "review_dt")

    def act(self, info: PursuerInfo) -> PursuerAction:
        if info.evader is None:
            raise ValueError("continuous pursuer queried without a live evader position")
        return PursuerAction(line_of_sight(info.own, info.evader), False,
                             info.time + self.review_dt)


class ArrivalSensingPursuer:
    """Walk to the last fix, hold there until ``_sense_at``, then sense.

    Here the hold is empty: a new fix is requested on arrival.  Each arrival
    contracts the separation by at least nu, and once nu * rho <= r_cap one
    blind dash along the anchor bearing is guaranteed to finish, so sensing
    stops there.  With no budget left it parks at the stale fix.  Config
    name: ``prop1``.
    """

    def act(self, info: PursuerInfo) -> PursuerAction:
        anchor_t, anchor_e, anchor_p, rho = info.log.anchor()
        cfg = info.config
        if cfg.nu * rho <= cfg.r_cap:
            # Endgame: the evader cannot escape the capture disc of this ray.
            return PursuerAction(line_of_sight(anchor_p, anchor_e), False, None)
        remaining = info.own.dist(anchor_e)
        if remaining > CHECK_TOL:
            return PursuerAction(line_of_sight(info.own, anchor_e), False,
                                 info.time + remaining)
        t_sense = self._sense_at(info, anchor_t, rho)
        if before(info.time, t_sense):
            return PursuerAction(_STILL, False, t_sense)
        if info.log.budget_remaining > 0:
            return PursuerAction(_STILL, True, None)
        return PursuerAction(_STILL, False, None)  # budget exhausted: park at the fix

    def _sense_at(self, info: PursuerInfo, anchor_t: float, rho: float) -> float:
        """When to sense once parked at the fix; ``before(t, t)`` is False, so at once."""
        return info.time


class WaitingPursuer(ArrivalSensingPursuer):
    """Budget-and-horizon-aware pursuer: bank spare time at the fix, then sense.

    At each anchor (separation rho, remaining time tau, remaining budget
    ell) it asks ``holds_at_fix``: is there time to spare while the capture
    region is out of reach?  If so it holds at the sensed point until
    t_fix + (1 - nu) * tau / (1 - nu^(ell+1)), and only then spends a
    sensing; with ell = 0 the hold simply lasts to the horizon.  Otherwise
    it senses on arrival like ``ArrivalSensingPursuer``.  A hold implies
    nu * rho > r_cap, so the endgame dash never cuts a hold short.  Config
    name: ``thm1``.
    """

    def _sense_at(self, info: PursuerInfo, anchor_t: float, rho: float) -> float:
        cfg = info.config
        ell = info.log.budget_remaining
        tau = cfg.t_f - anchor_t
        if holds_at_fix(rho, tau, ell, cfg.nu, cfg.r_cap):
            return anchor_t + sensing_delay(cfg.nu, ell, tau)
        return info.time


class SelfTriggeredPursuer:
    """Open-loop dash along the anchor bearing with a distance-scaled timer.

    Requests the next fix trigger_coefficient(nu) * rho after each anchor,
    mid-dash, without ever reaching the sensed point.  The scheme itself is
    budget-agnostic; when the engine's budget runs dry this implementation
    keeps the current bearing and stops asking (the sensing-count
    comparisons use the closed form, not this fallback).  Config name:
    ``aleem``.
    """

    def act(self, info: PursuerInfo) -> PursuerAction:
        anchor_t, anchor_e, anchor_p, rho = info.log.anchor()
        cfg = info.config
        heading = line_of_sight(anchor_p, anchor_e)
        if info.log.budget_remaining == 0:
            return PursuerAction(heading, False, None)
        t_next = anchor_t + trigger_coefficient(cfg.nu) * rho
        if not before(info.time, t_next):
            return PursuerAction(heading, True, None)
        return PursuerAction(heading, False, t_next)


class RadialEvader:
    """Flee straight away from the pursuer's current position at top speed.

    Against any pursuer that keeps itself on the pursuer-evader line this is
    exact despite the periodic replanning, because the recomputed bearing
    never changes.  Config name: ``radial``.
    """

    def __init__(self, review_dt: float = 0.1):
        self.review_dt = _positive(_number(review_dt, "review_dt"), "review_dt")

    def act(self, info: EvaderInfo) -> EvaderAction:
        away = line_of_sight(info.pursuer, info.own)
        return EvaderAction(away * info.config.nu, info.time + self.review_dt)


class EquilibriumEvader:
    """Coin-flip perpendicular dodges, radial flight once fixes stop mattering.

    Motion is constant over each inter-fix interval and anchored on the
    bearing at the latest fix.  The interval is terminal when no further fix
    can arrive in useful time: budget exhausted with tau <= rho, or budget
    left but the fix point unreachable before the horizon (tau < rho).
    There the evader flees along the anchor bearing; everywhere else it
    moves perpendicular to it, with the orientation taken from an explicit
    +/-1 stream indexed by interval, so outcomes can be enumerated exactly.
    ``thetas[k]`` is read only after the k-th fix (``thetas[0]`` from the
    free fix at t = 0 on), so a game whose final log holds d entries
    depends on ``thetas[:d]`` alone.  Config name: ``equilibrium``.
    """

    def __init__(self, thetas: Sequence[int]):
        if not isinstance(thetas, _Flips):
            if not (isinstance(thetas, (list, tuple))
                    and all(type(t) is int and t in (1, -1) for t in thetas)):
                raise ValueError(f"thetas must be a list of +1/-1 integers, got {thetas!r}")
            thetas = tuple(thetas)
        self.thetas = thetas

    def act(self, info: EvaderInfo) -> EvaderAction:
        # One float pass over the latest fix: hypot ignores sign, so the
        # separation is anchor()'s and the bearing is line_of_sight's, and the
        # velocities are perpendicular(bearing, theta) * nu and bearing * nu.
        log, cfg = info.log, info.config
        times = log.times
        px, py = log.pursuer_positions[-1]
        ex, ey = log.sensed_positions[-1]
        bx, by, rho = _bearing(ex - px, ey - py)
        tau = cfg.t_f - times[-1]
        ell = log.budget_remaining
        nu = cfg.nu
        if (ell == 0 and tau <= rho) or (ell >= 1 and tau < rho):  # terminal interval
            return EvaderAction(_new(Vec2, (bx * nu, by * nu)), None)
        interval = len(times) - 1
        try:
            theta = self.thetas[interval]
        except IndexError:
            raise ValueError(f"theta stream exhausted: interval {interval}, "
                             f"only {len(self.thetas)} draws") from None
        return EvaderAction(_new(Vec2, (-by * theta * nu, bx * theta * nu)), None)


class ScriptedEvader:
    """Replay an explicit list of (end_time, velocity) legs, then stand still.

    For adversarial sweeps and regression scenarios.  Config name: ``scripted``.
    """

    def __init__(self, legs: Sequence[tuple[float, Vec2]]):
        self.legs = _legs(legs)

    def act(self, info: EvaderInfo) -> EvaderAction:
        for t_end, velocity in self.legs:
            if info.time < t_end:
                return EvaderAction(velocity, t_end)
        return EvaderAction(_STILL, None)


class ScriptedPursuer:
    """Play (end_time, velocity) legs as ``ScriptedEvader`` does, then take fixes, then hand off.

    Fix k (the free fix at t = 0 not counted) is taken at ``sense_at[k]``,
    parked until then; after the last one it plays ``then``, or parks when
    ``then`` is None.  Pure when ``then`` is.  No config name.
    """

    def __init__(self, legs=(), sense_at=(), then=None):
        self.legs = _legs(legs)
        self.sense_at = tuple(sense_at)
        self.then = then

    def act(self, info: PursuerInfo) -> PursuerAction:
        for t_end, velocity in self.legs:
            if info.time < t_end:
                return PursuerAction(velocity, False, t_end)
        k = len(info.log.times) - 1
        if k < len(self.sense_at):
            if before(info.time, self.sense_at[k]):
                return PursuerAction(_STILL, False, self.sense_at[k])
            return PursuerAction(_STILL, True, None)
        return PursuerAction(_STILL, False, None) if self.then is None else self.then.act(info)


def _legs(legs: Sequence[tuple[float, Vec2]]) -> tuple[tuple[float, Vec2], ...]:
    """[t_end, [vx, vy]] legs: end times finite, positive and increasing; play checks the speed."""
    if not isinstance(legs, (list, tuple)):
        raise ValueError(f"legs must be a list of [t_end, [vx, vy]] pairs, got {legs!r}")
    parsed = []
    last_end = 0.0
    for k, leg in enumerate(legs):
        if not (isinstance(leg, (list, tuple)) and len(leg) == 2):
            raise ValueError(f"legs[{k}] must be a pair [t_end, [vx, vy]], got {leg!r}")
        t_end, velocity = leg
        if not isinstance(velocity, Vec2):
            velocity = _vec_from(velocity, "leg velocity")
        t_end = _number(t_end, "leg end time")
        if not (math.isfinite(t_end) and t_end > last_end):
            raise ValueError(f"leg end times must be positive and increasing, got {t_end}")
        parsed.append((t_end, velocity))
        last_end = t_end
    return tuple(parsed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for (seed, trial); trials are order-independent."""
    seed, trial = _seed(seed, "seed"), _index(trial, "trial index")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def theta_stream(seed: int, trial: int, length: int) -> tuple[int, ...]:
    """Deterministic +/-1 orientation draws for one trial."""
    return tuple(_Flips.seeded(seed, trial, _index(length, "length")))


class _Flips:
    """``length`` coin flips: ``head``, then ``tail`` for every later flip.

    ``tail`` is +1, -1 or, from ``seeded``, a generator drawn one flip at a time
    as each is first read (``theta_stream`` reads them all); so a budget costs
    nothing until a game spends it.  Not checked: only the package builds them.
    """

    __slots__ = ("_head", "_length", "_tail")

    def __init__(self, length: int, head: Sequence[int] = (), tail=1):
        self._head, self._length, self._tail = head, length, tail

    @classmethod
    def seeded(cls, seed: int, trial: int, length: int) -> "_Flips":
        return cls(length, [], trial_rng(seed, trial))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k: int) -> int:
        head = self._head
        if 0 <= k < len(head):
            return head[k]
        if not 0 <= k < self._length:
            raise IndexError(k)
        tail = self._tail
        if type(tail) is int:
            return tail
        while len(head) <= k:  # one draw at a time gives the bulk draw's values
            head.append(int(tail.choice((-1, 1))))
        return head[k]


# Config name -> (class, allowed parameter keys).
_PURSUERS = {
    "continuous": (ContinuousPursuer, ("review_dt",)),
    "prop1": (ArrivalSensingPursuer, ()),
    "thm1": (WaitingPursuer, ()),
    "aleem": (SelfTriggeredPursuer, ()),
}
_EVADERS = {
    "radial": (RadialEvader, ("review_dt",)),
    "equilibrium": (EquilibriumEvader, ("thetas",)),
    "scripted": (ScriptedEvader, ("legs",)),
}
PURSUER_NAMES = tuple(_PURSUERS)
EVADER_NAMES = tuple(_EVADERS)


def _lookup(selector, role: str, table: dict) -> tuple[type, dict]:
    """The class and parameters a config-file name or ``{"name": ..., **params}`` selects."""
    if isinstance(selector, str):
        name, params = selector, {}
    elif isinstance(selector, dict):
        if "name" not in selector:
            raise ValueError(f"{role} object needs a 'name' key, got {sorted(selector)}")
        params = dict(selector)
        name = params.pop("name")
    else:
        raise ValueError(f"{role} must be a name or an object, got {selector!r}")
    names = tuple(table)
    if name not in names:  # a tuple scan, so an unhashable name is unknown too
        raise ValueError(f"unknown {role} {name!r}; expected one of {names}")
    cls, allowed = table[name]
    extra = sorted(set(params) - set(allowed))
    if extra:
        raise ValueError(f"{name} got unknown parameters: {extra}")
    return cls, params


def build_pursuer(selector, config: GameConfig):
    """Construct a pursuer strategy from its config-file name or object."""
    cls, params = _lookup(selector, "pursuer", _PURSUERS)
    return cls(**params)


def build_evader(selector, config: GameConfig):
    """Construct an evader strategy from its config-file name or object.

    The equilibrium evader draws each orientation from the config seed
    (trial 0) when the game first reads it, unless ``thetas`` lists them.
    """
    cls, params = _lookup(selector, "evader", _EVADERS)
    if cls is EquilibriumEvader and params.get("thetas") is None:
        params["thetas"] = _Flips.seeded(config.seed, 0, config.n + 1)
    if cls is ScriptedEvader and "legs" not in params:
        raise ValueError("scripted evader needs a 'legs' list of [t_end, [vx, vy]] pairs")
    return cls(**params)
