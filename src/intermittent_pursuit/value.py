"""Closed-form quantities for the sensing-budget pursuit game.

This module has three layers:

* sensing-scheme arithmetic: the contraction factor and sensing count of the
  self-triggered dash scheme, the arrival-triggered count, and the travel
  budget of the arrival scheme;
* the value bound: an upper bound on the game value as a function of the
  separation ``rho`` at the last sensing, the remaining time ``tau``, and the
  remaining budget ``ell``, together with the case that produced it and a
  tightness flag (False in a thin slack region, and wrongly True at some
  ``ell >= 1`` states next to capture: see ``ValueBound``);
* degradation metrics: how much payoff the pursuer gives up by having only
  ``n`` sensings instead of continuous observation, and the geometric
  lower-bound coefficient for that loss.

Everything is a pure function of its arguments; no simulation happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CHECK_TOL, ROUND_TOL, PayoffSpec, RegionNotCoveredError, _in_unit, _index,
                   _nonnegative, _positive)

__all__ = [
    "trigger_coefficient",
    "self_triggered_contraction",
    "self_triggered_contraction_raw",
    "sense_count_self_triggered",
    "sense_count_arrival",
    "travel_budget",
    "reach_factor",
    "sensing_delay",
    "CAPTURE_REGION",
    "TIME_LIMITED",
    "WAIT_REGION",
    "STAGE0_CAPTURE",
    "STAGE0_STOP",
    "STAGE0_SLACK",
    "STAGE0_CHASE",
    "CASE_TAGS",
    "ValueBound",
    "holds_at_fix",
    "value_bound",
    "matching_sense_count",
    "continuous_sensing_payoff",
    "DegradationReport",
    "degradation_report",
]


# Floor and ceiling nudged by ROUND_TOL, so that an exact power does not flip
# the integer by one unit of rounding noise.
def _floor_nudged(q: float) -> int:
    return math.floor(q + ROUND_TOL * max(1.0, abs(q)))


def _ceil_nudged(q: float) -> int:
    return math.ceil(q - ROUND_TOL * max(1.0, abs(q)))


def trigger_coefficient(nu: float) -> float:
    """Inter-sensing interval of the self-triggered scheme, per unit separation.

    The scheme dashes toward the last sensed point for this fraction of the
    current separation before asking for the next fix:
    f(nu) = sqrt(1 - nu^2) / (nu + sqrt(1 - nu^2)).  Decreasing in nu: a
    faster evader forces more frequent sensing.
    """
    _in_unit(nu, "nu")
    root = math.sqrt(1.0 - nu * nu)
    return root / (nu + root)


def self_triggered_contraction(nu: float) -> float:
    """Worst-case separation shrink factor per self-triggered dash.

    Uses the singularity-free form 1 - (1-nu)*sqrt(1-nu^2)/(nu+sqrt(1-nu^2)),
    which equals ``self_triggered_contraction_raw`` wherever the latter is
    defined; the raw form is 0/0 at nu = 1/sqrt(2) and the singularity is
    removable.  Satisfies nu < value < 1 on all of (0, 1).  Equivalently,
    1 - (1-nu)*trigger_coefficient(nu): after a dash of f(nu)*rho, a radially
    fleeing evader leaves f*rho*nu + (1-f)*rho = contraction*rho between the
    players, and no other evader heading leaves more.
    """
    _in_unit(nu, "nu")
    root = math.sqrt(1.0 - nu * nu)
    return 1.0 - (1.0 - nu) * root / (nu + root)


def self_triggered_contraction_raw(nu: float) -> float:
    """Literal textbook form of the contraction factor.

    1 - [nu(1-nu)sqrt(1-nu^2) - (1-nu)(1-nu^2)] / (2nu^2 - 1).  Kept only for
    cross-checking the simplified form; numerically useless near the
    removable singularity at nu = 1/sqrt(2), where the denominator vanishes.
    """
    _in_unit(nu, "nu")
    root = math.sqrt(1.0 - nu * nu)
    numerator = nu * (1.0 - nu) * root - (1.0 - nu) * (1.0 - nu * nu)
    return 1.0 - numerator / (2.0 * nu * nu - 1.0)


def sense_count_self_triggered(rho0: float, r_cap: float, nu: float) -> int:
    """Sensings the self-triggered scheme needs to drive rho0 inside r_cap.

    ceil(log(r_cap/rho0) / log(contraction)), clamped at 0.
    """
    _in_unit(nu, "nu")
    if _positive(r_cap, "r_cap") > _positive(rho0, "rho0"):
        raise ValueError(f"rho0 must be at least r_cap, got {rho0} < {r_cap}")
    h = self_triggered_contraction(nu)
    q = (math.log(r_cap) - math.log(rho0)) / math.log(h)
    return max(_ceil_nudged(q), 0)


def _arrival_count(rho0: float, target: float, nu: float) -> int:
    """Shrinks by nu that keep rho0 >= target: floor(log(target/rho0) / log(nu)), at least 0."""
    return max(_floor_nudged((math.log(target) - math.log(rho0)) / math.log(nu)), 0)


def sense_count_arrival(rho0: float, r_cap: float, nu: float) -> int:
    """Sensings the move-to-last-fix scheme needs: floor(log(r_cap/rho0)/log(nu)).

    Each arrival at the previously sensed point shrinks the separation by at
    least nu, and once nu*rho <= r_cap one blind straight dash finishes the
    capture, so the count is a floor rather than a ceiling.
    """
    _in_unit(nu, "nu")
    if _positive(r_cap, "r_cap") > _positive(rho0, "rho0"):
        raise ValueError(f"rho0 must be at least r_cap, got {rho0} < {r_cap}")
    return _arrival_count(rho0, r_cap, nu)


def travel_budget(rho0: float, r_cap: float, nu: float) -> tuple[int, float]:
    """Sensing count and worst-case pursuer path length of the arrival scheme.

    Returns ``(sensings, max_travel)`` where ``max_travel`` is the geometric
    sum reach_factor(nu, dashes) * rho0 over the chase legs.  Unlike the
    count functions this accepts r_cap > rho0 (zero dashes, bound rho0).
    """
    _in_unit(nu, "nu")
    inside = _positive(r_cap, "r_cap") > _positive(rho0, "rho0")
    dashes = 0 if inside else _arrival_count(rho0, r_cap, nu) + 1
    return max(dashes - 1, 0), reach_factor(nu, dashes) * rho0


def reach_factor(nu: float, ell: int) -> float:
    """Geometric sum 1 + nu + ... + nu**ell = (1 - nu^(ell+1)) / (1 - nu).

    Per unit of current separation, the time the pursuer needs to chase down
    the evader through ell more sensings plus the final blind dash.
    """
    _in_unit(nu, "nu")
    _index(ell, "ell")
    return (1.0 - nu ** (ell + 1)) / (1.0 - nu)


def sensing_delay(nu: float, ell: int, tau: float) -> float:
    """Time from a fix to the waiting pursuer's next one: (1 - nu) * tau / (1 - nu^(ell+1)).

    ``tau`` and ``ell`` are the time and the budget left at the fix."""
    _in_unit(nu, "nu")
    _index(ell, "ell")
    return (1.0 - nu) * tau / (1.0 - nu ** (ell + 1))


# Case tags; fixed strings, also the vocabulary of the value-grid CSV.
CAPTURE_REGION = "capture_region"
TIME_LIMITED = "time_limited"
WAIT_REGION = "wait_region"
STAGE0_CAPTURE = "stage0_case1"
STAGE0_STOP = "stage0_case2a"
STAGE0_SLACK = "stage0_case2b"
STAGE0_CHASE = "stage0_case3"

CASE_TAGS = (
    CAPTURE_REGION,
    TIME_LIMITED,
    WAIT_REGION,
    STAGE0_CAPTURE,
    STAGE0_STOP,
    STAGE0_SLACK,
    STAGE0_CHASE,
)


@dataclass(frozen=True, slots=True)
class ValueBound:
    """Upper bound on the game value plus which analytic case produced it.

    ``is_tight`` is False exactly when the queried state sits in the slack
    region, where only the upper bound (not the exact value) is known.  The
    bound of a scalar query holds a Python float, str and bool; the bound of
    an array query holds arrays of the broadcast shape, element for element.

    Known defect: for ``ell >= 1`` some states next to capture are flagged
    tight, yet the coin-flip evader's guarantee falls below the bound.  With
    r_cap = 0.1 and the hinge payoff, (rho, tau, ell, nu) =
    (1.6384615384615386, 3.253846153846154, 3, 0.5) misses by 0.00846 and
    (0.16188383045525906, 0.16789638932496076, 1, 0.7) by 0.0115.
    """

    value: float
    case_tag: str
    is_tight: bool

    def __post_init__(self):
        tags = self.case_tag
        if not (isinstance(tags, str) and tags in CASE_TAGS):
            unknown = set(np.ravel(tags).tolist()).difference(CASE_TAGS)
            if unknown:
                raise ValueError(f"unknown case tag {min(unknown)!r}")
        _checked(self.value, "bound value")


# The value bound is written once, element for element: each helper below
# acts on Python scalars with Python's own operations and on numpy arrays with
# numpy's, and both give the same floats.


def _checked(x, what: str):
    """``x`` as a Python number or a float array, once every value lies in [0, inf)."""
    if isinstance(x, (int, float)):
        return _nonnegative(x, what)
    x = np.asarray(x, dtype=float)
    ok = (0.0 <= x) & (x < math.inf)
    if not ok.all():
        _nonnegative(x[~ok].tolist()[0], what)  # raises, naming the first bad element
    return x


def _where(cond, if_true, if_false):
    """``np.where`` on arrays, a conditional expression on scalars."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


_TAG_ARRAY = np.array(CASE_TAGS, dtype=object)


def _bound(phi: PayoffSpec, capture, distance, conditions, tags, slack) -> ValueBound:
    """The ``ValueBound`` of one case split.

    The value is 0 on capture and phi(distance) elsewhere, the tag is that
    of the first condition that holds (else the last tag), and the bound is
    tight outside the slack region.  On arrays the tags are object arrays
    whose elements are the strings of ``CASE_TAGS`` themselves, and phi is
    ``phi.evaluate``'s arithmetic, element for element.
    """
    if not isinstance(capture, np.ndarray):
        value = 0.0 if capture else phi.evaluate(distance)
        tag = tags[-1]
        for cond, candidate in zip(conditions, tags):
            if cond:
                tag = candidate
                break
        return ValueBound(float(value), tag, not slack)
    distance = np.where(capture, 0.0, distance)
    excess = distance - phi.r_cap
    value = np.where(excess < 0.0, 0.0, excess)  # max(excess, 0.0), as in evaluate
    if phi.kind != "hinge":
        with np.errstate(over="ignore"):  # inf without a warning, as a float square gives
            value = value * value
    codes = np.select(conditions, [CASE_TAGS.index(tag) for tag in tags[:-1]],
                      CASE_TAGS.index(tags[-1]))
    return ValueBound(value, _TAG_ARRAY[codes], ~slack)


def _in_slack(rho, tau, ell: int, nu: float, r_cap: float, reach: float):
    """The slack region of budget ``ell``, element for element.

    ell = 0: tau >= rho and r_cap < nu*rho <= sqrt(1+nu^2)*r_cap.
    ell >= 1: tau >= reach*rho and r_cap <= rho <= sqrt(1+nu^2)*r_cap, where
    ``reach`` is reach_factor(nu, ell) (exactly 1.0 at ell = 0).
    """
    edge = math.sqrt(1.0 + nu * nu) * r_cap
    if ell == 0:
        scaled = nu * rho
        return (tau >= rho) & (r_cap < scaled) & (scaled <= edge)
    return (tau >= reach * rho) & (r_cap <= rho) & (rho <= edge)


def holds_at_fix(rho, tau, ell: int, nu: float, r_cap: float):
    """Whether the waiting pursuer, parked at a fix, holds there before sensing.

    ``rho``, ``tau`` and ``ell`` are the separation, the time and the budget
    left at the fix.  It holds, element for element, while the budget cannot
    corner the evader (nu^(ell+1)*rho > r_cap) and there is time to spare
    (tau > reach_factor(nu, ell)*rho past a ``ROUND_TOL`` band).  These are
    the wait_region states of ``value_bound`` for ell >= 1; at ell = 0 the
    hold lasts to the horizon.
    """
    return _holds(rho, tau, reach_factor(nu, ell), nu ** (ell + 1), r_cap)


def _holds(rho, tau, reach, shrink, r_cap):
    """``holds_at_fix`` given reach_factor(nu, ell) and nu^(ell+1), unchecked."""
    band = ROUND_TOL * _where(tau > 1.0, tau, 1.0)  # ROUND_TOL * max(1.0, tau)
    return (shrink * rho > r_cap) & (tau > reach * rho + band)


def value_bound(rho, tau, ell: int, phi: PayoffSpec, nu: float) -> ValueBound:
    """Value bound for separation rho, remaining time tau, remaining budget ell.

    ``rho`` and ``tau`` are floats or arrays that broadcast together; an
    array query gives the scalar query's value, tag and flag element for
    element, bit for bit.  For ell >= 1 the cases are:

    * capture_region: 0 when tau >= reach_factor(nu, ell)*rho and
      nu^(ell+1)*rho <= r_cap (enough time and enough sensings to corner);
    * wait_region: phi((1-nu)/(1-nu^(ell+1)) * nu^(ell+1) * tau) where
      ``holds_at_fix`` (the pursuer banks time at the sensed point before
      spending sensings);
    * time_limited: phi(nu*tau + rho - tau) otherwise, when
      tau <= reach_factor*rho (chasing is all the pursuer can do with the
      time left).

    Queries on the time_limited/wait_region boundary resolve to time_limited;
    the two branches agree there (both give phi(nu^(ell+1)*rho)), and the
    time_limited distance is clamped at 0 in the ``ROUND_TOL`` band just
    above it.  A query with rho <= r_cap is capture at the query instant and
    returns 0.

    With an exhausted budget (ell = 0) the split is: 0 if the pursuer can
    corner the evader (tau >= rho and nu*rho <= r_cap); otherwise
    phi(nu*tau + max(rho - tau, 0)), which is the chase outcome when time is
    short (tau < rho) and the go-to-the-point-and-stop outcome when it is
    not.  The stop case is tight only outside the slack region.  The
    tightness flag follows the budget's slack predicate even where the value
    comes from the capture case.
    """
    reach_per_rho = reach_factor(nu, ell)  # checks nu and ell
    rho = _checked(rho, "rho")
    tau = _checked(tau, "tau")
    r_cap = phi.r_cap
    slack = _in_slack(rho, tau, ell, nu, r_cap, reach_per_rho)
    if ell == 0:
        capture = (tau >= rho) & (nu * rho <= r_cap)
        gap = rho - tau
        distance = nu * tau + _where(gap < 0.0, 0.0, gap)  # max(rho - tau, 0.0)
        return _bound(phi, capture, distance, (capture, tau < rho, slack),
                      (STAGE0_CAPTURE, STAGE0_CHASE, STAGE0_SLACK, STAGE0_STOP), slack)
    shrink = nu ** (ell + 1)
    reach = reach_per_rho * rho
    capture = (rho <= r_cap) | ((tau >= reach) & (shrink * rho <= r_cap))
    wait = _holds(rho, tau, reach_per_rho, shrink, r_cap)
    chase = nu * tau + rho - tau
    chase = _where(chase < 0.0, 0.0, chase)  # max(chase, 0.0)
    distance = _where(wait, (1.0 - nu) / (1.0 - shrink) * shrink * tau, chase)
    return _bound(phi, capture, distance, (capture, wait),
                  (CAPTURE_REGION, WAIT_REGION, TIME_LIMITED), slack)


def matching_sense_count(rho0: float, t_f: float, nu: float, r_cap: float) -> int:
    """Smallest budget whose bound matches the continuous-sensing payoff.

    Requires nu*rho0 > sqrt(1+nu^2)*r_cap (the initial state must sit clear
    of the slack region); outside that precondition the closed form is not
    covered and a RegionNotCoveredError is raised.
    """
    _in_unit(nu, "nu")
    _positive(r_cap, "r_cap")
    _positive(rho0, "rho0")
    _nonnegative(t_f, "t_f")
    if nu * rho0 <= math.sqrt(1.0 + nu * nu) * r_cap:
        raise RegionNotCoveredError(
            f"need nu*rho0 > sqrt(1+nu^2)*r_cap, got {nu * rho0} <= "
            f"{math.sqrt(1.0 + nu * nu) * r_cap}"
        )
    if t_f < (rho0 - r_cap) / (1.0 - nu):
        return _arrival_count(rho0, rho0 - (1.0 - nu) * t_f, nu)
    return _arrival_count(rho0, r_cap, nu)


def continuous_sensing_payoff(rho0: float, t_f: float, nu: float, phi: PayoffSpec) -> float:
    """Payoff when the pursuer observes continuously: phi(max(rho0-(1-nu)t_f, 0))."""
    _in_unit(nu, "nu")
    _nonnegative(rho0, "rho0")
    _nonnegative(t_f, "t_f")
    return phi.evaluate(max(rho0 - (1.0 - nu) * t_f, 0.0))


@dataclass(frozen=True, slots=True)
class DegradationReport:
    """Payoff degradation per budget n = 0 .. n_star, against continuous sensing.

    ``deltas[n]`` is the value-bound excess over the continuous-sensing
    payoff; ``betas[n]`` is the geometric lower-bound coefficient, empty when
    the final continuous-sensing separation is zero (beta undefined).
    """

    deltas: tuple[float, ...]
    betas: tuple[float, ...]
    continuous_payoff: float

    @property
    def n_star(self) -> int:
        return len(self.deltas) - 1

    def __post_init__(self):
        if self.betas and len(self.betas) != len(self.deltas):
            raise ValueError("betas must be empty or aligned with deltas")
        for n, delta in enumerate(self.deltas):
            if self.betas:
                floor = self.betas[n] * self.continuous_payoff
                if delta < floor - CHECK_TOL * max(1.0, abs(floor)):
                    raise ValueError(
                        f"degradation floor violated at n={n}: "
                        f"delta={delta} < beta*continuous={floor}"
                    )


def degradation_report(rho0: float, t_f: float, nu: float, phi: PayoffSpec) -> DegradationReport:
    """Evaluate the degradation metrics for budgets n = 0 .. n_star inclusive.

    Cross-checks itself: below n_star the state must land in the wait branch
    of the value bound, so the delta recomputed from the pooled-wait formula
    has to agree to 1e-12.
    """
    r_cap = phi.r_cap
    n_star = matching_sense_count(rho0, t_f, nu, r_cap)
    payoff_continuous = continuous_sensing_payoff(rho0, t_f, nu, phi)
    gap = rho0 - (1.0 - nu) * t_f
    deltas = []
    betas = []
    for n in range(n_star + 1):
        bound = value_bound(rho0, t_f, n, phi, nu)
        delta = bound.value - payoff_continuous
        deltas.append(delta)
        if gap > 0:
            shrink = nu ** (n + 1)
            betas.append(shrink / (1.0 - shrink) * ((1.0 - nu) * t_f / gap) - 1.0)
        if n < n_star:
            pooled = (1.0 - nu) / (1.0 - nu ** (n + 1)) * nu ** (n + 1) * t_f
            direct = phi.evaluate(pooled) - payoff_continuous
            if abs(direct - delta) > ROUND_TOL * max(1.0, abs(direct)):
                raise RuntimeError(
                    f"internal: wait-form delta {direct} disagrees with "
                    f"value-bound delta {delta} at n={n}"
                )
    return DegradationReport(tuple(deltas), tuple(betas), payoff_continuous)
